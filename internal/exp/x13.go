package exp

import (
	"fmt"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/workload"
)

const (
	x13Seed = 23 // seeds X13's world
	// x13Streams is the published stream population.
	x13Streams = 16
	// x13Sweeps is the number of adaptation rounds.
	x13Sweeps = 4
	// x13DriftFraction of nodes get fresh background loads before every
	// sweep — the "drifting services" dynamic of the paper, §3.3.
	x13DriftFraction = 0.1
	// x13TupleSizeKB sets producer tuple granularity.
	x13TupleSizeKB = 4
)

// X13Params configures the periodic-adaptation scenario.
type X13Params struct {
	// StubNodes is the per-stub-domain node count; 21 gives the
	// 1024-node overlay.
	StubNodes int
	Queries   int
	// Budget caps migrations per sweep so the adaptation spreads across
	// rounds instead of thrashing in one.
	Budget int
	// IntervalSimSeconds of dataflow run between sweeps.
	IntervalSimSeconds float64
	WarmupSimSeconds   float64
}

// DefaultX13Params returns the configuration at scale s: at Full, the
// 1024-node overlay.
func DefaultX13Params(s Scale) X13Params {
	p := X13Params{StubNodes: 21, Queries: 120, Budget: 16, IntervalSimSeconds: 2, WarmupSimSeconds: 4}
	if s == Small {
		p.StubNodes = 5 // 256 nodes
		p.Queries = 30
		p.Budget = 6
		p.IntervalSimSeconds = 1
		p.WarmupSimSeconds = 2
	}
	return p
}

// X13 is the continuous-adaptation scenario at scale: a 1024-node
// overlay executes ~120 optimized circuits under virtual time while
// background load drifts; every interval the adaptation layer sweeps,
// selects the migrations with the highest incident-usage gain (the
// paper's network-usage metric, measured against real link latencies —
// a re-optimizing node can measure RTTs to its circuit neighbors
// directly), and walks them through the live two-phase handoff. Total
// network usage must never rise, and must drop on every sweep that
// migrates, with zero tuple loss — the paper's central "continuous
// optimization" claim exercised end to end on running circuits.
func X13(p X13Params) (*Table, error) {
	wallStart := time.Now()

	// Oracle mapping: same answers, fast drift sweeps.
	w, err := scenario.Build(scenario.Spec{
		Seed:     x13Seed,
		Topology: stubTopology(p.StubNodes),
		Streams:  streamsOf(x13Streams),
		Queries:  queriesOf(p.Queries, 1, 2),
		Engine:   expEngine(x13TupleSizeKB),
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo, env, dep := w.Topo, w.Env, w.Deployment

	results, err := optimizer.OptimizeBatch(env, w.Queries, optimizer.BatchOptions{})
	if err != nil {
		return nil, err
	}
	if err := w.StartDataPlane(); err != nil {
		return nil, err
	}
	net := w.Net
	if err := w.Deploy(circuitsOf(results)...); err != nil {
		return nil, err
	}
	truth := optimizer.TrueLatency{Topo: topo}
	w.SimSleep(p.WarmupSimSeconds)

	co := w.Coordinator()
	// Real measured latencies for the local re-optimization criterion
	// (precedent: X9's rewriting also re-optimizes against truth).
	co.Model, co.Threshold = truth, 0.01
	co.Select = func(plan optimizer.MigrationPlan) optimizer.MigrationPlan { return bestMoves(plan, p.Budget) }
	churn := workload.Churn{LoadFraction: x13DriftFraction, LoadMax: 0.9}

	t := NewTable(fmt.Sprintf("X13 — periodic adaptation on a %d-node overlay under drifting load", topo.NumNodes()),
		"sweep", "planned", "migrated", "usage before", "usage after", "settle sim-ms", "buffered", "forwarded")
	usage := dep.TotalUsage(truth)
	var totalMigrations, totalBuffered, totalForwarded int
	monotone := true
	for sweep := 1; sweep <= x13Sweeps; sweep++ {
		w.Drift(churn)
		before := dep.TotalUsage(truth)
		r, err := co.Round(nil, nil)
		if err != nil {
			return nil, err
		}
		w.SimSleep(p.IntervalSimSeconds)

		after := dep.TotalUsage(truth)
		if after > before || r.Sweep.Migrated > 0 && after >= before {
			monotone = false
		}
		totalMigrations += r.Sweep.Migrated
		totalBuffered += r.Sweep.Buffered
		totalForwarded += r.Sweep.Forwarded
		t.AddRow(sweep, r.Sweep.Planned, r.Sweep.Migrated, before, after,
			net.SimMillis(r.Sweep.SettleDuration), r.Sweep.Buffered, r.Sweep.Forwarded)
		usage = after
	}

	// Quiesce and close the loss accounting.
	produced, delivered := w.Quiesce()
	unrouted := int(net.Metrics.Counter("msgs.unrouted").Value())
	downDropped := int(net.Metrics.Counter("msgs.down_dropped").Value())
	wall := time.Since(wallStart)

	t.AddNote("%d nodes, %d circuits, %d migrations over %d sweeps; final usage %.0f KB·ms/s; non-increasing per sweep, strictly lower on every sweep that migrated: %v",
		topo.NumNodes(), len(w.Runs), totalMigrations, x13Sweeps, usage, monotone)
	t.AddNote("zero-loss accounting: unrouted=%d data-to-dead=%d; produced %d tuples, delivered %d; buffered %d / forwarded %d across handoffs",
		unrouted, downDropped, produced, delivered, totalBuffered, totalForwarded)
	t.AddHostNote("wall %v for %.0f simulated circuit-seconds of adaptive execution",
		wall.Round(time.Millisecond), float64(len(w.Runs))*(p.WarmupSimSeconds+x13Sweeps*p.IntervalSimSeconds))
	return t, nil
}
