package exp

import (
	"fmt"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

const (
	x16Seed = 37 // seeds X16's world and fault plan
	// x16Streams is the published stream population.
	x16Streams = 16
	// x16CrashFraction of all nodes crash, staggered across the crash
	// window — the 5% crash scenario. Victims are drawn from
	// non-endpoint nodes, half of them operator hosts, so every run
	// exercises actual circuit repair rather than only ambient deaths.
	x16CrashFraction = 0.05
	// x16DropProb is the ambient per-message loss every send rides
	// through, heartbeats included.
	x16DropProb = 0.01
	// x16JitterMs adds uniform extra latency to delivered messages.
	x16JitterMs = 2
	// x16HeartbeatSimMillis is the heartbeat period; detection latency
	// is bounded by DeadMissed+1 periods.
	x16HeartbeatSimMillis = 200
	// x16RepairIntervalSimMillis paces the detect-repair-sweep loop.
	x16RepairIntervalSimMillis = 500
	// x16TupleSizeKB sets producer tuple granularity.
	x16TupleSizeKB = 4
)

// X16Params configures the failure-recovery scenario.
type X16Params struct {
	// StubNodes is the per-stub-domain node count; 21 gives the
	// 1024-node overlay.
	StubNodes int
	Queries   int
	// WarmupSimSeconds of fault-free execution precede the crash
	// window; CrashSpreadSimSeconds is the window's width; the repair
	// loop then runs RunSimSeconds total after warmup.
	WarmupSimSeconds      float64
	CrashSpreadSimSeconds float64
	RunSimSeconds         float64
	// Trace, when set, records the run's structured events — fault
	// injections, detector verdicts, repair rounds, migrations, sampled
	// tuple hops. Nil (the default) traces nothing.
	Trace *trace.Tracer
	// DataShards executes the data plane on that many parallel
	// per-shard event queues (<= 1: the single-queue scheduler). Every
	// artifact — table rows, trace bytes, final placements — is defined
	// to be bit-identical across shard counts; only wall time changes.
	DataShards int
}

// DefaultX16Params returns the configuration at scale s: at Full, the
// 1024-node overlay.
func DefaultX16Params(s Scale) X16Params {
	p := X16Params{StubNodes: 21, Queries: 120, WarmupSimSeconds: 4, CrashSpreadSimSeconds: 4, RunSimSeconds: 8}
	if s == Small {
		p.StubNodes = 5 // 256 nodes
		p.Queries = 30
		p.WarmupSimSeconds = 2
		p.CrashSpreadSimSeconds = 2
		p.RunSimSeconds = 6
	}
	return p
}

// X16 is the unplanned-failure scenario end to end: ~120 circuits
// execute on the 1024-node overlay under 1% ambient message loss while
// 5% of the nodes crash with no warning, staggered across a window.
// Heartbeats feed the failure detector; every repair interval the
// coordinator consumes its events, cancels doomed circuits, re-places
// every service stranded on a confirmed-dead node via the evacuation
// sweep (live nodes only), re-instantiates the lost operators fresh,
// and then runs one incremental adaptation sweep — zero manual
// Evacuate calls anywhere. The experiment reports detection latency
// (crash → Died verdict), repair lag (crash → routes flipped), the
// measured tuple loss (crash recovery is bounded-loss by design: the
// bound is the metric, counted by the loss counters, never silent),
// and post-repair vs pre-crash network usage. The whole run is
// virtual-clock deterministic: same seed, bit-identical table.
func X16(p X16Params) (*Table, error) {
	wallStart := time.Now()

	// Oracle mapping: same answers, fast repair sweeps.
	w, err := scenario.Build(scenario.Spec{
		Seed:       x16Seed,
		Topology:   stubTopology(p.StubNodes),
		Streams:    streamsOf(x16Streams),
		Queries:    queriesOf(p.Queries, 1, 2),
		DataShards: p.DataShards,
		Engine:     expEngine(x16TupleSizeKB),
		Tracer:     p.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo, env, dep, clk := w.Topo, w.Env, w.Deployment, w.Clock

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

	// x16CrashFraction of all nodes crash, none of them pinned endpoints
	// (that path is unit-tested; this scenario measures repair), half of
	// them operator hosts so affected circuits are guaranteed.
	victims := w.CrashVictims(max(int(x16CrashFraction*float64(topo.NumNodes())+0.5), 1), true)
	if len(victims) == 0 {
		return nil, fmt.Errorf("x16: no crashable non-endpoint nodes")
	}
	warmup := time.Duration(p.WarmupSimSeconds * float64(time.Second))
	spread := time.Duration(p.CrashSpreadSimSeconds * float64(time.Second))
	fi := w.InjectFaults(overlay.FaultPlan{
		Seed:     x16Seed,
		DropProb: x16DropProb,
		JitterMs: x16JitterMs,
		Crashes:  scenario.StaggerCrashes(victims, warmup+500*time.Millisecond, spread),
	})
	det := w.StartFailureDetection(x16HeartbeatSimMillis * time.Millisecond)

	co := w.Coordinator()
	co.Model, co.Threshold, co.TicketTTL = truth, 0.3, 5*time.Second

	t0 := clk.Now()
	clk.Sleep(warmup)
	usageBefore := dep.TotalUsage(truth)

	// The detect-repair-adapt loop: one Round per repair interval.
	interval := x16RepairIntervalSimMillis * time.Millisecond
	rounds := int(p.RunSimSeconds*1000/x16RepairIntervalSimMillis + 0.5)
	t := NewTable("X16 — crash detection and automatic circuit repair under ambient loss",
		"round", "sim-ms", "died", "planned", "repaired", "zombie", "aborted", "buffered lost", "state lost KB")
	var detections, outages []time.Duration
	var totalRep adapt.RepairStats
	var sweepMigrated int
	for round := 1; round <= rounds; round++ {
		clk.Sleep(interval)
		r, err := co.Round(det, nil)
		if err != nil {
			return nil, err
		}
		for _, ev := range r.Events {
			if at, ok := fi.CrashTime(ev.Node); ok && ev.Kind == failure.Died {
				detections = append(detections, ev.At.Sub(at))
				outages = append(outages, r.At.Sub(at))
			}
		}
		rep := r.Repair
		totalRep.Add(rep)
		sweepMigrated += r.Sweep.Migrated
		if rep.DeadNodes > 0 || rep.Repaired > 0 || rep.Aborted > 0 {
			t.AddRow(round, net.SimMillis(r.At.Sub(t0)), rep.DeadNodes, rep.Planned,
				rep.Repaired, rep.ZombieRepaired, rep.Aborted, rep.BufferedLost, rep.StateLostKB)
		}
	}

	// Hard invariants, not statistics.
	if totalRep.DeadNodes != len(victims) {
		return nil, fmt.Errorf("x16: detector confirmed %d deaths, crashed %d nodes (false positives or missed crashes)",
			totalRep.DeadNodes, len(victims))
	}
	if totalRep.CancelledCircuits != 0 {
		return nil, fmt.Errorf("x16: %d circuits cancelled despite endpoint-free victims", totalRep.CancelledCircuits)
	}
	crashed := map[topology.NodeID]bool{}
	for _, n := range victims {
		crashed[n] = true
	}
	for id, c := range dep.Circuits() {
		for i, s := range c.Services {
			if crashed[s.Node] {
				return nil, fmt.Errorf("x16: q%d service %d still placed on crashed node %d", id, i, s.Node)
			}
		}
	}

	// Drain in-flight handoffs, then quiesce and close the books.
	clk.Sleep(2 * time.Second)
	usageAfter := dep.TotalUsage(truth)
	produced, delivered := w.Quiesce()
	faultDropped := int(net.Metrics.Counter("faults.dropped").Value())
	hbDropped := int(net.Metrics.Counter("faults.hb_dropped").Value())
	downDropped := int(net.Metrics.Counter("msgs.down_dropped").Value())
	unrouted := int(net.Metrics.Counter("msgs.unrouted").Value())
	bufferedLost := int(net.Metrics.Counter("repair.buffered_lost").Value())
	lost := faultDropped + downDropped + unrouted + bufferedLost
	lossPct := 0.0
	if produced > 0 {
		lossPct = 100 * float64(lost) / float64(produced)
	}
	if lost == 0 {
		return nil, fmt.Errorf("x16: crashes plus %g%% loss dropped nothing — the scenario is vacuous", 100*x16DropProb)
	}

	simMs := func(ds []time.Duration) (avg, max float64) {
		if len(ds) == 0 {
			return 0, 0
		}
		for _, d := range ds {
			ms := net.SimMillis(d)
			avg += ms
			if ms > max {
				max = ms
			}
		}
		return avg / float64(len(ds)), max
	}
	detAvg, detMax := simMs(detections)
	outAvg, outMax := simMs(outages)

	t.AddNote("%d nodes, %d circuits; crashed %d nodes (%.1f%%) under %.0f%% ambient loss — %d services repaired (%d zombie), %d sweeps-migrated, zero manual Evacuate calls",
		topo.NumNodes(), len(w.Runs), len(victims), 100*float64(len(victims))/float64(topo.NumNodes()),
		100*x16DropProb, totalRep.Repaired, totalRep.ZombieRepaired, sweepMigrated)
	t.AddNote("detection latency avg %.0f / max %.0f sim-ms; crash-to-repair avg %.0f / max %.0f sim-ms (beat %.0f ms, repair interval %.0f ms)",
		detAvg, detMax, outAvg, outMax, float64(x16HeartbeatSimMillis), float64(x16RepairIntervalSimMillis))
	t.AddNote("bounded loss: %d tuples+messages (%.2f%% of %d produced) = %d injector-dropped + %d at-corpse + %d unrouted + %d handoff-buffered; %d heartbeats dropped; operator state lost %.0f KB",
		lost, lossPct, produced, faultDropped, downDropped, unrouted, bufferedLost, hbDropped, totalRep.StateLostKB)
	t.AddNote("network usage %.0f KB·ms/s pre-crash vs %.0f post-repair (%.2fx); delivered %d tuples",
		usageBefore, usageAfter, usageAfter/usageBefore, delivered)
	t.AddNote("placement fingerprint %016x; data plane on %d event queue(s)",
		placementFingerprint(dep), net.DataShards())
	t.AddHostNote("wall %v for %.0f simulated seconds (warmup %.0f + repair loop %.0f + drain 3)",
		time.Since(wallStart).Round(time.Millisecond), p.WarmupSimSeconds+p.RunSimSeconds+3,
		p.WarmupSimSeconds, p.RunSimSeconds)
	return t, nil
}
