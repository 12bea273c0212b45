package exp

import (
	"math/rand"

	"github.com/hourglass/sbon/internal/metrics"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

const fig3Seed = 3 // seeds the Figure 3 topology, embedding and trials

// Fig3Params configures the Figure 3 reproduction.
type Fig3Params struct {
	Scale  Scale
	Trials int
}

// DefaultFig3Params returns the configuration at scale s.
func DefaultFig3Params(s Scale) Fig3Params { return Fig3Params{Scale: s, Trials: 150} }

// Fig3 reproduces Figure 3: virtual placement followed by physical
// mapping in the cost space. Per trial, a virtual coordinate is chosen
// and the node nearest to it in the latency plane is overloaded (the
// paper's node N1). Three mappers are compared:
//
//   - hilbert-dht  — the paper's mechanism: DHT lookup of the coordinate,
//     rank nearby published coordinates by full-space distance;
//   - oracle       — exact full-space nearest (ground truth);
//   - vector-only  — latency-plane nearest, blind to load (the N1 trap).
//
// The full-space mappers must route around the overloaded node; the
// vector-only mapper must fall into it. Mapping error is the full-space
// distance between the virtual coordinate and the chosen node.
func Fig3(p Fig3Params) (*Table, error) {
	topo := genTopo(p.Scale, fig3Seed)
	cfg := optimizer.DefaultEnvConfig(fig3Seed)
	env, err := optimizer.NewEnv(topo, nil, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(fig3Seed * 31))
	space := env.Space()

	mappers := []placement.Mapper{
		placement.DHTMapper{Catalog: env.Catalog(), Candidates: 8, MaxScan: 48},
		placement.OracleMapper{Source: env},
		placement.VectorOnlyMapper{Source: env},
	}
	type acc struct {
		overloaded int
		errs       *metrics.Histogram
		hops       *metrics.Histogram
	}
	accs := make(map[string]*acc, len(mappers))
	for _, m := range mappers {
		accs[m.Name()] = &acc{errs: &metrics.Histogram{}, hops: &metrics.Histogram{}}
	}

	n := topo.NumNodes()
	for trial := 0; trial < p.Trials; trial++ {
		// A virtual coordinate near a random node, jittered: where
		// relaxation placement might land.
		anchor := topology.NodeID(rng.Intn(n))
		base := env.VecCoord(anchor)
		target := vivaldi.Coord{base[0] + rng.NormFloat64()*3, base[1] + rng.NormFloat64()*3}

		// Overload the latency-nearest node: the paper's N1.
		n1 := nearestInVectorPlane(env, target)
		savedLoad := env.Load(n1)
		env.SetBackgroundLoad(n1, 0.95)

		ideal := space.IdealPoint(target)
		for _, m := range mappers {
			node, stats, err := m.MapCoord(topology.NodeID(rng.Intn(n)), target, nil)
			if err != nil {
				return nil, err
			}
			a := accs[m.Name()]
			if node == n1 {
				a.overloaded++
			}
			a.errs.Observe(space.Distance(ideal, env.Point(node)))
			a.hops.Observe(float64(stats.LookupHops))
		}
		env.SetBackgroundLoad(n1, savedLoad)
	}

	t := NewTable("Figure 3 — virtual placement + physical mapping (overloaded nearest node N1)",
		"mapper", "picked overloaded N1 %", "mean map error", "p95 map error", "mean DHT hops")
	for _, m := range mappers {
		a := accs[m.Name()]
		t.AddRow(m.Name(),
			100*float64(a.overloaded)/float64(p.Trials),
			a.errs.Mean(), a.errs.Quantile(0.95), a.hops.Mean())
	}
	oracleErr := accs["oracle"].errs.Mean()
	dhtErr := accs["hilbert-dht"].errs.Mean()
	if oracleErr > 0 {
		t.AddNote("hilbert-dht mapping error / oracle = %.3f (paper: \"for realistic topologies ... this error remains small\")", dhtErr/oracleErr)
	}
	t.AddNote("expected shape: vector-only falls into N1 almost always; full-space mappers avoid it (paper: N1's load makes it \"seem far away\")")
	return t, nil
}

// nearestInVectorPlane returns the node whose vector coordinate is
// closest to target, ignoring load.
func nearestInVectorPlane(env *optimizer.Env, target vivaldi.Coord) topology.NodeID {
	best := topology.NodeID(0)
	bestD := -1.0
	for _, id := range env.NodeIDs() {
		d := env.VecCoord(id).Distance(target)
		if bestD < 0 || d < bestD {
			best, bestD = id, d
		}
	}
	return best
}
