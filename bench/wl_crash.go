package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/topology"
)

// crashRepair is crash_repair: the kernel- and overlay-dominated
// scenario. The whole population heartbeats every 200 sim-ms on 16
// parallel lanes under 1% ambient loss and 2 ms jitter while nodes
// crash unannounced, a steady number per slice; a failure detector
// turns silence into verdicts and the benchmark drives exp.X16's loop
// itself: sleep one repair interval, take the detector's events, repair
// (HandleFailures), adapt (SweepIncremental). Physical mapping in that
// loop is the paper's: DHTMapper over the Hilbert-keyed catalog, with
// Catalog.RepairAfterCrash retiring the dead and lookups retrying
// through the fault plan's RPC oracle.
type crashRepair struct {
	c   *ctx
	dp  *dataPlane
	fi  *overlay.FaultInjector
	hb  *overlay.Heartbeats
	det *failure.Detector
	co  *adapt.Coordinator

	drift    *rand.Rand
	crashes  int
	repair   adapt.RepairStats
	deaths   int // Died verdicts on crashed nodes
	falsePos int // Died verdicts on live nodes

	detectMs, repairLagMs []float64 // simulated
	repairMs, sweepMs     []float64 // host
	controlHost           time.Duration
	evaluated, migrated   int
	rounds                int
}

// crashTail is how many untimed rounds follow the timed region so that
// the last slice's crashes are detected and repaired like every other
// slice's before the books close.
const crashTail = 6

func setupCrashRepair(c *ctx) (instance, error) {
	net, err := c.buildNet16k(c.sz.net16kStreams, true)
	if err != nil {
		return nil, err
	}
	net.ticker.Stop()
	queries, err := genQueries(net.topo, net.stats, c.sz.crashCircuits, 2, 3, 0, rand.New(rand.NewSource(c.seed*7)), 1)
	if err != nil {
		net.close()
		return nil, err
	}
	dp, err := c.buildDataPlane(net, queries, c.sz.crashDataShards)
	if err != nil {
		net.close()
		return nil, err
	}
	w := &crashRepair{c: c, dp: dp, drift: rand.New(rand.NewSource(c.seed * 11))}

	// Victims, as in X16: never a producer or consumer (a dead endpoint
	// makes its circuit unrepairable by definition), half of them drawn
	// from the nodes hosting operators so that circuits need repair.
	endpoint := map[topology.NodeID]bool{}
	opHost := map[topology.NodeID]bool{}
	for _, circuit := range dp.circuits() {
		for _, s := range circuit.Services {
			if s.Pinned {
				endpoint[s.Node] = true
			} else {
				opHost[s.Node] = true
			}
		}
	}
	var opHosts, ambient []topology.NodeID
	for i := 0; i < net.topo.NumNodes(); i++ {
		n := topology.NodeID(i)
		switch {
		case endpoint[n]:
		case opHost[n]:
			opHosts = append(opHosts, n)
		default:
			ambient = append(ambient, n)
		}
	}
	vrng := rand.New(rand.NewSource(c.seed * 13))
	vrng.Shuffle(len(opHosts), func(i, j int) { opHosts[i], opHosts[j] = opHosts[j], opHosts[i] })
	vrng.Shuffle(len(ambient), func(i, j int) { ambient[i], ambient[j] = ambient[j], ambient[i] })
	w.crashes = c.sz.crashPerSlice * c.slices
	fromOps := min(w.crashes/2, len(opHosts))
	if w.crashes-fromOps > len(ambient) {
		return nil, fmt.Errorf("crash_repair: %d crashes asked of %d crashable nodes", w.crashes, fromOps+len(ambient))
	}
	victims := append(append([]topology.NodeID{}, opHosts[:fromOps]...), ambient[:w.crashes-fromOps]...)
	vrng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })

	// Crashes are spread evenly over the timed region: each slice sees
	// the same number, each at the same offset into its slice.
	warm := simDuration(c.sz.crashWarmSimS)
	slice := time.Duration(c.sz.crashRoundsPerSlice) * c.sz.repairEvery
	plan := overlay.FaultPlan{Seed: c.seed, DropProb: c.sz.crashDrop, JitterMs: c.sz.crashJitterMs}
	for i, n := range victims {
		at := warm + time.Duration(int64(slice)*int64(c.slices)*(2*int64(i)+1)/(2*int64(len(victims))))
		plan.Crashes = append(plan.Crashes, overlay.NodeCrash{Node: n, At: at})
	}
	w.fi = dp.onet.InstallFaults(plan)
	cat := net.env.Catalog()
	cat.Ring().InstallFaults(dht.RingFaults{Drop: w.fi.RPCOracle()})

	w.hb = dp.onet.StartHeartbeatsOpts(c.sz.heartbeatEvery, 0.05, overlay.HeartbeatOpts{SkipDownTargets: true})
	// Dead after six silent intervals, not the default four: with 1% loss
	// and 16,400 nodes beating 5 times a simulated second, four drops in a
	// row happen to some live node in about one run in fifty, and a
	// condemned live node is a failed operation here.
	dcfg := failure.DefaultConfig(c.sz.heartbeatEvery)
	dcfg.SuspectMissed, dcfg.DeadMissed = 3, 6
	w.det = failure.New(dp.onet, dcfg)
	w.co = &adapt.Coordinator{
		Dep:       dp.dep,
		Engine:    dp.engine,
		Clock:     net.clk,
		Mapper:    wideDHT(cat),
		Model:     optimizer.TrueLatency{Topo: net.topo},
		Threshold: 0.3,
		TicketTTL: 5 * time.Second,
	}
	// Warm-up runs the same loop, before the first crash is due.
	for r := 0; r < int(warm/c.sz.repairEvery); r++ {
		if err := w.round(); err != nil {
			dp.close()
			return nil, err
		}
	}
	return w, nil
}

// round is one turn of the detect-repair-adapt loop.
func (w *crashRepair) round() error {
	c, rep, dp := w.c, w.c.rep, w.dp
	w.rounds++
	dp.advance(c.sz.repairEvery)
	events := w.det.TakeEvents()
	now := dp.net.clk.Now()

	// A service's repair lag runs from the crash of its host to this
	// round, in which HandleFailures flips its route.
	var lags []float64
	for _, ev := range events {
		if ev.Kind != failure.Died {
			continue
		}
		at, crashed := w.fi.CrashTime(ev.Node)
		if !crashed {
			w.falsePos++
			continue
		}
		w.deaths++
		w.detectMs = append(w.detectMs, dp.onet.SimMillis(ev.At.Sub(at)))
		lag := dp.onet.SimMillis(now.Sub(at))
		for _, circuit := range dp.dep.Circuits() {
			for _, s := range circuit.Services {
				if s.Node == ev.Node && !s.Pinned {
					lags = append(lags, lag)
				}
			}
		}
	}

	end := c.span("adapt.handle_failures")
	start := time.Now()
	st, err := w.co.HandleFailures(events, nil)
	d := time.Since(start)
	end()
	w.controlHost += d
	rep.ops(1)
	if err != nil {
		rep.fail("HandleFailures: %v", err)
		return err
	}
	if st.Repaired > 0 {
		w.repairMs = append(w.repairMs, d.Seconds()*1e3)
		w.repairLagMs = append(w.repairLagMs, lags...)
	}
	w.repair.DeadNodes += st.DeadNodes
	w.repair.CancelledCircuits += st.CancelledCircuits
	w.repair.Repaired += st.Repaired
	w.repair.Aborted += st.Aborted
	w.repair.StateLostKB += st.StateLostKB

	end = c.span("adapt.sweep_incremental")
	start = time.Now()
	sw, err := w.co.SweepIncremental(nil)
	d = time.Since(start)
	end()
	w.controlHost += d
	w.sweepMs = append(w.sweepMs, d.Seconds()*1e3)
	rep.ops(1)
	if err != nil {
		rep.fail("SweepIncremental: %v", err)
		return err
	}
	w.evaluated += sw.ServicesEvaluated
	w.migrated += sw.Migrated
	return nil
}

func (w *crashRepair) slice(int) (float64, error) {
	c := w.c
	sent := w.dp.counter("msgs.sent")
	end := c.span("optimizer.load_drift")
	c.drift(w.dp.net.env, c.sz.crashDrift, w.drift)
	end()
	for r := 0; r < c.sz.crashRoundsPerSlice; r++ {
		if err := w.round(); err != nil {
			return 0, err
		}
	}
	return w.dp.counter("msgs.sent") - sent, nil
}

func (w *crashRepair) finish() error {
	c, rep, dp := w.c, w.c.rep, w.dp
	for r := 0; r < crashTail; r++ {
		if err := w.round(); err != nil {
			return err
		}
	}

	// Hard invariants of the scenario.
	crashed := map[topology.NodeID]bool{}
	for _, n := range w.fi.CrashedNodes() {
		crashed[n] = true
	}
	rep.check(len(crashed) == w.crashes, "%d of %d scheduled crashes fired", len(crashed), w.crashes)
	rep.check(w.deaths == w.crashes, "detector confirmed %d deaths of %d crashes", w.deaths, w.crashes)
	rep.check(w.falsePos == 0, "detector condemned %d live nodes", w.falsePos)
	rep.check(w.repair.DeadNodes == w.crashes, "repair acted on %d dead nodes of %d", w.repair.DeadNodes, w.crashes)
	rep.check(w.repair.CancelledCircuits == 0, "%d circuits cancelled though no endpoint crashed", w.repair.CancelledCircuits)
	rep.check(w.repair.Repaired > 0, "no service needed repair: the scenario is vacuous")
	circuits := dp.circuits()
	rep.ops(len(circuits))
	for _, circuit := range circuits {
		for i, s := range circuit.Services {
			if crashed[s.Node] {
				rep.fail("query %d service %d still on crashed node %d", circuit.Query.ID, i, s.Node)
			}
		}
	}

	usageMetrics(c, dp.net.env, circuits)
	dp.measure()
	rep.check(dp.lost() > 0, "crashes and %g loss dropped nothing: the scenario is vacuous", c.sz.crashDrop)
	dp.quiesce(w.hb.Stop, w.det.Stop, w.fi.Stop)

	rep.set("adapt.repair_sim_ms_p50", median(w.repairLagMs))
	rep.set("failure.detect_sim_ms_p50", median(w.detectMs))
	rep.fp.float("repair_sim_ms_p50", rep.values["adapt.repair_sim_ms_p50"])
	rep.fp.float("detect_sim_ms_p50", rep.values["failure.detect_sim_ms_p50"])
	rep.fp.float("repaired", float64(w.repair.Repaired))
	if c.tracing() {
		rep.set("failure.false_positive_ratio", ratio(float64(w.falsePos), float64(w.falsePos+w.deaths)))
		rep.set("adapt.repair_round_ms_p50", median(w.repairMs))
		rep.set("adapt.sweep_ms_p50", median(w.sweepMs))
		rep.set("adapt.control_share", ratio(w.controlHost.Seconds(), (w.controlHost+dp.advanceHost).Seconds()))
		rep.set("adapt.services_evaluated_per_round", ratio(float64(w.evaluated), float64(w.rounds)))
		rep.set("adapt.repaired_services", float64(w.repair.Repaired))
		rep.set("adapt.migrations", float64(w.migrated))
		rep.set("adapt.state_lost_kb", w.repair.StateLostKB)
		fs := dp.net.env.Catalog().Ring().FaultStats()
		rep.set("dht.rpc_retry_ratio", ratio(float64(fs.Retries), float64(fs.RPCs)))
		setupLayerMetrics(c, dp.net.env)
	}
	return nil
}

func (w *crashRepair) rungs() error {
	c, dp := w.c, w.dp
	rungLatency(c, dp.net.topo)
	rungOracle(c, dp.net.env)
	rungDHT(c, dp.net.env)
	rungKernel(c, "simtime.kernel_events_per_s", dp.pendingPeak, nil, 0, 0)
	rungKernel(c, "simtime.sharded_events_per_s", dp.pendingPeak, dp.laneOf, dp.shards, dp.lookahead)
	rungHeartbeats(c, dp.net.topo, dp.laneOf, dp.shards, dp.lookahead)
	return nil
}

func (w *crashRepair) close() { w.dp.close() }
