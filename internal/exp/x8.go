package exp

import (
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/workload"
)

// x8RunForScale is the unit X8Params.RunFor is expressed in: 10µs per
// simulated millisecond, the scale of the wall-clock engine the
// experiment first ran on. The golden table's window note is pinned in
// these units.
const x8RunForScale = 10 * time.Microsecond

const x8Seed = 18 // seeds X8's topology

// X8Params configures the data-plane validation run.
type X8Params struct {
	// RunFor is the measurement window per circuit at 10µs per
	// simulated millisecond (so 2s ≡ 200 simulated seconds); the window
	// itself takes no wall time.
	RunFor time.Duration
}

// DefaultX8Params returns the configuration at scale s.
func DefaultX8Params(s Scale) X8Params {
	p := X8Params{RunFor: 2 * time.Second}
	if s == Small {
		p.RunFor = 700 * time.Millisecond
	}
	return p
}

// X8 validates the analytic cost model against the executing data plane:
// circuits are optimized, deployed on the overlay runtime, and run with
// real tuples; measured delivery rate and network usage are compared to
// the model's predictions. This closes the loop between the optimizer's
// arithmetic and an actual dataflow. The dataflow runs on the
// discrete-event clock: milliseconds of wall time, bit-identical tables
// for a fixed seed.
func X8(p X8Params) (*Table, error) {
	spec := scenario.Spec{
		Seed: x8Seed,
		// Three hand-written circuits: a small topology regardless of
		// scale.
		Topology: topology.Config{
			TransitDomains:      2,
			TransitNodes:        2,
			StubsPerTransit:     1,
			StubNodes:           4,
			IntraStubLatency:    [2]float64{1, 4},
			StubUplinkLatency:   [2]float64{2, 8},
			IntraTransitLatency: [2]float64{5, 15},
			InterTransitLatency: [2]float64{20, 50},
			ExtraStubEdgeProb:   0.2,
		},
		Streams: workload.StreamConfig{DefaultSel: 0.8},
		Engine:  stream.EngineConfig{Seed: 1},
	}
	w, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo, env := w.Topo, w.Env
	stubs := topo.StubNodeIDs()
	for i := 0; i < 2; i++ {
		if err := w.Stats.AddStream(query.StreamID(i), stubs[i*5], 50); err != nil {
			return nil, err
		}
	}
	if err := w.StartDataPlane(); err != nil {
		return nil, err
	}
	simMs := float64(p.RunFor) / float64(x8RunForScale)
	window := time.Duration(simMs * float64(time.Millisecond))

	cases := []struct {
		name string
		q    query.Query
	}{
		{"relay (1 stream)", query.Query{ID: 1, Consumer: stubs[10], Streams: []query.StreamID{0}}},
		{"filter 0.5", query.Query{ID: 2, Consumer: stubs[11], Streams: []query.StreamID{0},
			FilterSel: map[query.StreamID]float64{0: 0.5}}},
		{"2-way join", query.Query{ID: 3, Consumer: topo.TransitNodeIDs()[0], Streams: []query.StreamID{0, 1}}},
	}
	truth := optimizer.TrueLatency{Topo: topo}
	t := NewTable("X8 — data-plane validation: analytic model vs executing circuits",
		"circuit", "analytic usage", "measured usage", "usage ratio",
		"analytic rate KB/s", "measured rate KB/s", "rate ratio")
	for _, tc := range cases {
		res, err := optimizer.NewIntegrated(env).Optimize(tc.q)
		if err != nil {
			return nil, err
		}
		analyticUsage := res.Circuit.NetworkUsage(truth)
		analyticRate := res.Circuit.Plan.OutRate
		if err := w.Execute(res.Circuit); err != nil {
			return nil, err
		}
		w.Clock.Sleep(window)
		m := w.Runs[len(w.Runs)-1].Measure()
		if err := w.Engine.Stop(tc.q.ID); err != nil {
			return nil, err
		}
		t.AddRow(tc.name, analyticUsage, m.NetworkUsage, m.NetworkUsage/analyticUsage,
			analyticRate, m.OutRateKBs, m.OutRateKBs/analyticRate)
	}
	t.AddNote("expected shape: ratios ≈ 1 for relay/filter; join rate noisier (window fill-up, key collisions) but same order of magnitude")
	t.AddNote("engine: virtual time (deterministic; %v simulated per circuit)", time.Duration(simMs)*time.Millisecond)
	return t, nil
}
