package exp

import (
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// X12Params configures the node-churn-during-execution scenario.
type X12Params struct {
	Seed int64
	// StubNodes is the per-stub-domain node count (default 12 → 592
	// nodes, the paper's scale).
	StubNodes int
	// Streams and Queries size the executing workload.
	Streams int
	Queries int
	// KillFraction of overlay nodes depart mid-run (default 0.05).
	KillFraction float64
	// WarmupSimSeconds runs the data plane before the churn event.
	WarmupSimSeconds float64
	// HeartbeatEvery paces liveness pings (0 disables).
	HeartbeatEvery time.Duration
	// TupleSizeKB sets producer tuple granularity.
	TupleSizeKB float64
	// Trace, when set, records the run's structured events (drain
	// migrations, adaptation rounds, sampled tuple hops).
	Trace *trace.Tracer
}

// DefaultX12Params returns the full-scale configuration.
func DefaultX12Params() X12Params {
	return X12Params{
		Seed:             20,
		StubNodes:        12,
		Streams:          12,
		Queries:          40,
		KillFraction:     0.05,
		WarmupSimSeconds: 5,
		HeartbeatEvery:   500 * time.Millisecond,
		TupleSizeKB:      4,
	}
}

// X12 is the node-churn scenario the deploy-once engine could never
// express: while circuits execute, 5% of the overlay's nodes announce
// departure; the adaptation layer drains every service off them through
// the live migration protocol (buffer → cutover → forward), the nodes
// die, and later re-join as migration targets for the next
// re-optimization sweep. The scenario measures data-plane settle time
// for both phases and proves zero tuple loss: no unrouted messages, no
// data message ever delivered to a dead node, and — after quiescing
// producers — every produced tuple accounted for at a consumer or
// inside a (counted) join/aggregate reduction.
func X12(p X12Params) (*Table, error) {
	d := DefaultX12Params()
	orDefault(&p.StubNodes, d.StubNodes)
	orDefault(&p.Streams, d.Streams)
	orDefault(&p.Queries, d.Queries)
	orDefault(&p.KillFraction, d.KillFraction)
	orDefault(&p.WarmupSimSeconds, d.WarmupSimSeconds)
	orDefault(&p.TupleSizeKB, d.TupleSizeKB)
	wallStart := time.Now()

	// Oracle mapping: identical results, faster churn sweeps.
	w, err := scenario.Build(scenario.Spec{
		Seed:     p.Seed,
		Topology: stubTopology(p.StubNodes),
		Streams:  streamsOf(p.Streams),
		Queries:  queriesOf(p.Queries, 1, 2),
		Engine:   expEngine(p.TupleSizeKB),
		Tracer:   p.Trace,
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
	if p.HeartbeatEvery > 0 {
		w.StartHeartbeats(p.HeartbeatEvery)
	}
	w.SimSleep(p.WarmupSimSeconds)

	// Victim selection: KillFraction of all nodes, half of them hosting
	// an operator (a departure that never touches a running service
	// would make the drain a no-op), none pinning an endpoint
	// (producers and consumers cannot leave losslessly — "one cannot
	// move mountains").
	victims := w.CrashVictims(int(p.KillFraction*float64(topo.NumNodes())), true)
	departed := make(map[topology.NodeID]bool, len(victims))
	for _, v := range victims {
		departed[v] = true
	}

	co := w.Coordinator()
	co.Exclude = departed
	usageBefore := dep.TotalUsage(truth)

	lossNow := func() int {
		return int(net.Metrics.Counter("msgs.unrouted").Value() +
			net.Metrics.Counter("msgs.down_dropped").Value())
	}

	// Phase 1: drain, then kill.
	drain, err := co.Evacuate(victims, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range victims {
		net.SetNodeDown(v, true)
	}
	w.SimSleep(2) // run on the shrunk overlay
	drainLoss := lossNow()

	// Phase 2: the killed nodes re-join and a sweep may claim them.
	for _, v := range victims {
		net.SetNodeDown(v, false)
	}
	co.Exclude = nil
	// The rejoined nodes return idle while survivors carry extra load —
	// exactly the imbalance a sweep exploits.
	r, err := co.Round(nil, nil)
	if err != nil {
		return nil, err
	}
	rejoin := r.Sweep
	w.SimSleep(2)

	// Quiesce and account for every tuple.
	produced, delivered := w.Quiesce()
	usageAfter := dep.TotalUsage(truth)
	unrouted := int(net.Metrics.Counter("msgs.unrouted").Value())
	downDropped := int(net.Metrics.Counter("msgs.down_dropped").Value())
	hbDropped := int(net.Metrics.Counter("hb.down_dropped").Value())
	wall := time.Since(wallStart)

	t := NewTable("X12 — node churn during execution: drain, kill, re-join",
		"phase", "nodes", "migrations", "buffered", "forwarded", "settle sim-ms", "tuple loss")
	t.AddRow("drain+kill", len(victims), drain.Migrated, drain.Buffered, drain.Forwarded,
		net.SimMillis(drain.SettleDuration), drainLoss)
	t.AddRow("rejoin+sweep", len(victims), rejoin.Migrated, rejoin.Buffered, rejoin.Forwarded,
		net.SimMillis(rejoin.SettleDuration), unrouted+downDropped-drainLoss)
	t.AddNote("killed %.0f%% of %d nodes mid-execution; %d circuits kept running; produced %d tuples, delivered %d",
		p.KillFraction*100, topo.NumNodes(), len(w.Runs), produced, delivered)
	t.AddNote("loss accounting: unrouted=%d, data-to-dead-node=%d (heartbeats to dead nodes: %d, counted separately)",
		unrouted, downDropped, hbDropped)
	t.AddNote("total network usage %.0f → %.0f KB·ms/s across the churn; wall %v",
		usageBefore, usageAfter, wall.Round(time.Millisecond))
	return t, nil
}
