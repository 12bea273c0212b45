package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/topology"
)

const fig2Seed = 2 // seeds the Figure 2 topology and embedding

// Fig2Params configures the Figure 2 reproduction.
type Fig2Params struct {
	Scale Scale
	// PointsCSV, when non-nil, receives one row per node
	// (id,kind,x,y,load,load_weighted) — the scatter the paper plots.
	PointsCSV io.Writer
}

// DefaultFig2Params returns the configuration at scale s (Full is ≈600
// nodes, the paper's Figure 2 setting).
func DefaultFig2Params(s Scale) Fig2Params { return Fig2Params{Scale: s} }

// Fig2 reproduces Figure 2: ~600 transit-stub nodes embedded in a
// 3-dimensional cost space — two Vivaldi latency dimensions (x,y) and a
// squared CPU-load dimension (z). The table reports what the figure
// shows qualitatively: the scale of the point cloud, the fidelity of the
// latency embedding, and how the squared weighting stretches loaded
// nodes away from the latency plane.
func Fig2(p Fig2Params) (*Table, error) {
	topo := genTopo(p.Scale, fig2Seed)
	cfg := optimizer.DefaultEnvConfig(fig2Seed)
	env, err := optimizer.NewEnv(topo, nil, cfg)
	if err != nil {
		return nil, err
	}
	space := env.Space()

	var xs, ys, loads, weights []float64
	for _, id := range env.NodeIDs() {
		pt := env.Point(id)
		xs = append(xs, pt[0])
		ys = append(ys, pt[1])
		loads = append(loads, env.Load(id))
		weights = append(weights, space.ScalarComponents(pt)[0])
	}
	sort.Float64s(loads)
	sort.Float64s(weights)

	stats := topo.ComputeStats()
	q := env.EmbeddingQuality

	t := NewTable("Figure 2 — transit-stub topology in a 3-D cost space (latency × latency × load²)",
		"metric", "value")
	t.AddRow("nodes", stats.Nodes)
	t.AddRow("transit / stub nodes", fmt.Sprintf("%d / %d", stats.TransitNodes, stats.StubNodes))
	t.AddRow("stub domains", stats.StubDomains)
	t.AddRow("pairwise latency ms (min/mean/max)", fmt.Sprintf("%.1f / %.1f / %.1f", stats.MinLatency, stats.MeanLatency, stats.MaxLatency))
	t.AddRow("vivaldi rel. err (median)", q.MedianRelErr)
	t.AddRow("vivaldi rel. err (p90)", q.P90RelErr)
	t.AddRow("coordinate spread x (ms)", spread(xs))
	t.AddRow("coordinate spread y (ms)", spread(ys))
	t.AddRow("raw load (p50/p90/max)", fmt.Sprintf("%.2f / %.2f / %.2f", pct(loads, 0.5), pct(loads, 0.9), pct(loads, 1)))
	t.AddRow("load² dimension ms (p50/p90/max)", fmt.Sprintf("%.1f / %.1f / %.1f", pct(weights, 0.5), pct(weights, 0.9), pct(weights, 1)))
	t.AddNote("expected shape: embedding error small (coordinates usable as a latency metric); squared weighting keeps the median node near the plane while pushing the loaded tail up (paper's node a)")

	if p.PointsCSV != nil {
		if err := writeFig2Points(p.PointsCSV, env, topo); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func writeFig2Points(w io.Writer, env *optimizer.Env, topo *topology.Topology) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "kind", "x_ms", "y_ms", "load", "load_weighted_ms"}); err != nil {
		return fmt.Errorf("exp: fig2 csv header: %w", err)
	}
	space := env.Space()
	for _, id := range env.NodeIDs() {
		pt := env.Point(id)
		rec := []string{
			strconv.Itoa(int(id)),
			topo.Node(id).Kind.String(),
			strconv.FormatFloat(pt[0], 'f', 3, 64),
			strconv.FormatFloat(pt[1], 'f', 3, 64),
			strconv.FormatFloat(env.Load(id), 'f', 4, 64),
			strconv.FormatFloat(space.ScalarComponents(pt)[0], 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("exp: fig2 csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func spread(v []float64) string {
	min, max := v[0], v[0]
	for _, x := range v {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return fmt.Sprintf("[%.1f, %.1f]", min, max)
}

// pct returns the q-quantile of sorted data.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
