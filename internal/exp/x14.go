package exp

import (
	"math"
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
)

const (
	x14Seed = 29 // seeds X14's world and query population
	// x14Streams is the published stream population.
	x14Streams = 16
	// x14TupleSizeKB sets producer tuple granularity.
	x14TupleSizeKB = 4
)

// X14Params configures the shared-execution scenario.
type X14Params struct {
	// StubNodes is the per-stub-domain node count; 21 gives the
	// 1024-node overlay.
	StubNodes int
	// Groups is the number of shared subtrees: distinct stream pairs
	// whose join every query in the group computes.
	Groups int
	// PerGroup is the number of queries per group (5 at Full, giving
	// the 200-query workload): the first deploys the join, the rest
	// stack distinct aggregates on top and reuse it.
	PerGroup int
	// MeasureSimSeconds is the data-plane measurement window.
	MeasureSimSeconds float64
}

// DefaultX14Params returns the configuration at scale s: at Full, the
// 1024-node overlay.
func DefaultX14Params(s Scale) X14Params {
	p := X14Params{StubNodes: 21, Groups: 40, PerGroup: 5, MeasureSimSeconds: 5}
	if s == Small {
		p.StubNodes = 5 // 256 nodes
		p.Groups = 8
		p.PerGroup = 3
		p.MeasureSimSeconds = 2
	}
	return p
}

// x14Pass is one full build-optimize-deploy-execute-measure run of the
// workload at a fixed reuse radius.
type x14Pass struct {
	nodes       int
	circuits    int
	reusedSvcs  int
	instances   int
	subscribers int
	usage       float64
	delivered   int
	sharedIn    int
	produced    int
	unrouted    int
	downDropped int
}

// x14Queries builds the overlapping-predicate workload: Groups distinct
// stream pairs, PerGroup queries each — the first a bare join (the
// eventual instance owner), the rest adding a per-query aggregate above
// the same join so the join subtree is the only shareable part.
func x14Queries(p X14Params, stubs []topology.NodeID, rng *rand.Rand) []query.Query {
	var pairs [][2]query.StreamID
	for a := 0; a < x14Streams; a++ {
		for b := a + 1; b < x14Streams; b++ {
			pairs = append(pairs, [2]query.StreamID{query.StreamID(a), query.StreamID(b)})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > p.Groups {
		pairs = pairs[:p.Groups]
	}
	var qs []query.Query
	for g, pair := range pairs {
		for k := 0; k < p.PerGroup; k++ {
			q := query.Query{
				ID:       query.QueryID(g*p.PerGroup + k + 1),
				Consumer: stubs[rng.Intn(len(stubs))],
				Streams:  []query.StreamID{pair[0], pair[1]},
			}
			if k > 0 {
				// Distinct fractions keep each consumer's aggregate
				// un-shareable; only the join below is common.
				q.AggregateFraction = 0.15 * float64(k)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// x14RunPass builds a fresh, identically seeded world and runs the
// workload on it at the given reuse radius.
func x14RunPass(p X14Params, radius float64) (x14Pass, error) {
	var out x14Pass
	// Oracle mapping: same answers, fast sequential deploys.
	w, err := scenario.Build(scenario.Spec{
		Seed:     x14Seed,
		Topology: stubTopology(p.StubNodes),
		Streams:  streamsOf(x14Streams),
		Engine:   expEngine(x14TupleSizeKB),
	})
	if err != nil {
		return out, err
	}
	defer w.Close()
	if err := w.StartDataPlane(); err != nil {
		return out, err
	}
	// The query population is identical for both passes: its own RNG,
	// independent of the world's streams.
	qs := x14Queries(p, w.Topo.StubNodeIDs(), rand.New(rand.NewSource(x14Seed*7)))

	mq := optimizer.NewMultiQuery(w.Env, w.Deployment.Registry, radius)
	mq.Mapper = placement.OracleMapper{Source: w.Env}
	for _, q := range qs {
		res, err := mq.Optimize(q)
		if err != nil {
			return out, err
		}
		if err := w.Deploy(res.Circuit); err != nil {
			return out, err
		}
		out.reusedSvcs += res.ReusedServices
	}
	runs, net := w.Runs, w.Net
	out.nodes, out.circuits = w.Topo.NumNodes(), len(runs)
	st := w.Engine.SharedStats()
	out.instances = st.Instances
	out.subscribers = st.Subscribers

	w.SimSleep(p.MeasureSimSeconds)
	out.produced, out.delivered = w.Quiesce()
	for _, run := range runs {
		out.usage += run.Measure().NetworkUsage
		out.sharedIn += run.SharedIn()
	}
	out.unrouted = int(net.Metrics.Counter("msgs.unrouted").Value())
	out.downDropped = int(net.Metrics.Counter("msgs.down_dropped").Value())
	return out, nil
}

// X14 is the shared-execution scenario: an overlapping-predicate
// workload (Groups shared join subtrees × PerGroup queries on the
// 1024-node overlay) runs twice on the data plane — once with
// multi-query reuse enabled, once with it disabled — and the measured
// network usage of the executing circuits is compared. With reuse the
// engine instantiates each shared join exactly once and fans its output
// out to every subscriber, so measured usage must land strictly below
// the no-reuse run: the §3.4 savings realized in tuples on the wire,
// not just in control-plane accounting. Both passes are deterministic
// under the virtual clock.
func X14(p X14Params) (*Table, error) {
	wallStart := time.Now()

	// The reuse-on pass prunes reuse to radius +Inf: full multi-query
	// optimization (§3.4).
	on, err := x14RunPass(p, math.Inf(1))
	if err != nil {
		return nil, err
	}
	off, err := x14RunPass(p, 0)
	if err != nil {
		return nil, err
	}

	t := NewTable("X14 — shared execution: data-plane usage with multi-query reuse on vs off",
		"mode", "circuits", "reused svcs", "shared insts", "subscribers", "usage KB·ms/s", "delivered", "shared-in", "loss")
	t.AddRow("reuse-on", on.circuits, on.reusedSvcs, on.instances, on.subscribers,
		on.usage, on.delivered, on.sharedIn, on.unrouted+on.downDropped)
	t.AddRow("reuse-off", off.circuits, off.reusedSvcs, off.instances, off.subscribers,
		off.usage, off.delivered, off.sharedIn, off.unrouted+off.downDropped)

	reduction := 0.0
	if off.usage > 0 {
		reduction = 100 * (1 - on.usage/off.usage)
	}
	t.AddNote("%d nodes, %d queries over %d shared subtrees; measured usage %.1f vs %.1f KB·ms/s — reuse saves %.1f%% on the wire",
		on.nodes, on.circuits, p.Groups, on.usage, off.usage, reduction)
	t.AddNote("reuse-on executed %d shared instances once each for %d subscribers (produced %d tuples vs %d without reuse); loss counters %d/%d (must be 0)",
		on.instances, on.subscribers, on.produced, off.produced, on.unrouted+on.downDropped, off.unrouted+off.downDropped)
	t.AddHostNote("wall %v for both %0.f-simulated-second passes under the virtual clock",
		time.Since(wallStart).Round(time.Millisecond), p.MeasureSimSeconds)
	return t, nil
}
