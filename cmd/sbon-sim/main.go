// Command sbon-sim runs ad-hoc SBON simulations: it generates a
// workload, optimizes and deploys every query with the chosen optimizer,
// optionally applies load churn with re-optimization rounds, and prints
// deployment statistics.
//
// Usage:
//
//	sbon-sim -queries 20 -optimizer integrated
//	sbon-sim -optimizer multiquery -radius 50
//	sbon-sim -optimizer twostep -adapt 10 -adapt-budget 0
//
// With -batch N the command instead runs the concurrent batch-optimization
// scenario: N queries (drawn from -batch-distinct distinct shapes, so the
// plan cache is exercised) are optimized by a worker pool over one frozen
// snapshot, optionally compared against the sequential loop:
//
//	sbon-sim -batch 10000 -batch-distinct 250 -workers 8 -batch-compare
//
// With -execute the optimized circuits are additionally deployed on the
// stream engine and run for -sim-seconds of simulated time on the
// deterministic discrete-event clock, so even large overlays and long
// windows complete in (reproducible) milliseconds:
//
//	sbon-sim -queries 100 -execute -sim-seconds 30
//
// With -adapt N the deployment additionally runs N adaptation rounds
// under drifting background load: each round plans service migrations
// over the cost space and commits them on the control plane or,
// combined with -execute, walks them through the engine's buffered
// zero-loss handoff while the circuits keep processing tuples:
//
//	sbon-sim -queries 40 -execute -adapt 4 -adapt-budget 16
//
// With -adapt-continuous the sweeps instead run as a clock-driven loop
// of incremental re-optimizations for N intervals (a round's settle
// delays the next, so fewer rounds may run): load drifts between rounds
// via scheduled events, and each round re-plans only the circuits the
// drift can affect, read from the environment's delta log:
//
//	sbon-sim -queries 40 -adapt 8 -adapt-continuous
//
// With -crash-frac (and optionally -drop-prob) the run becomes the
// unplanned-failure scenario: that fraction of nodes crashes without
// warning, staggered across the window, while every message rides
// through the seeded drop probability. Heartbeats feed the failure
// detector and the coordinator repairs affected circuits onto live
// nodes automatically — no Evacuate calls. Requires -execute; same
// seed reproduces the identical run:
//
//	sbon-sim -queries 40 -execute -crash-frac 0.05 -drop-prob 0.01
//
// Observability: -trace FILE writes the run's structured events as a
// Chrome trace-event file (load it in Perfetto or chrome://tracing),
// -trace-jsonl FILE writes the same events as JSON Lines — streamed to
// the file as they are emitted, in constant memory, unless -trace or
// -metrics-dump needs the events buffered; the bytes are the same
// either way — and -metrics-dump
// prints one JSON report merging the overlay's metric registry with
// the trace to stdout. Traces cover optimizer decisions,
// migration phases, repair rounds, fault injections, and failure
// verdicts; with -execute or -adapt they are stamped in simulated time
// and the serialized bytes are bit-identical for a fixed seed:
//
//	sbon-sim -queries 40 -execute -adapt 4 -trace out.json -metrics-dump
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hourglass/sbon/internal/metrics"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
	"github.com/hourglass/sbon/internal/workload"
)

// traceSink gathers the observability flags and the tracer they imply.
// open creates the tracer, stamping wall time until a scenario re-bases
// it onto the run's clock; finish writes the requested exports once the
// run completes.
type traceSink struct {
	chrome string
	jsonl  string
	dump   bool
	tr     *trace.Tracer
	// jsonlFile is the -trace-jsonl destination, open from the start so
	// that events can stream into it.
	jsonlFile *os.File
}

// streamJSONL reports whether -trace-jsonl streams: no other export
// reads the event buffer, so each line goes to the file when its event
// is emitted and memory stays constant however long the run.
func (s *traceSink) streamJSONL() bool { return s.chrome == "" && !s.dump }

func (s *traceSink) open() *trace.Tracer {
	if s.chrome == "" && s.jsonl == "" && !s.dump {
		return nil
	}
	s.tr = trace.New(nil)
	if s.jsonl != "" {
		f, err := os.Create(s.jsonl)
		if err != nil {
			fail(err)
		}
		s.jsonlFile = f
		if s.streamJSONL() {
			s.tr.StreamJSONL(f)
		}
	}
	return s.tr
}

func (s *traceSink) finish(reg *metrics.Registry) {
	if n := s.tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "trace: the event buffer was full; %d events were dropped from the buffered exports (-trace-jsonl alone keeps every event)\n", n)
	}
	if s.chrome != "" {
		f, err := os.Create(s.chrome)
		if err != nil {
			fail(err)
		}
		if err := s.tr.WriteChromeTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d events -> %s (Chrome trace-event format; open in Perfetto)\n", s.tr.Len(), s.chrome)
	}
	if s.jsonlFile != nil {
		if !s.streamJSONL() {
			s.tr.StreamJSONL(s.jsonlFile) // writes the buffered run
		}
		err := s.tr.Flush()
		if cerr := s.jsonlFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		if s.streamJSONL() {
			fmt.Printf("trace: streamed JSON Lines -> %s (constant memory)\n", s.jsonl)
		} else {
			fmt.Printf("trace: %d events -> %s (JSON Lines)\n", s.tr.Len(), s.jsonl)
		}
	}
	if s.dump {
		if reg == nil {
			reg = metrics.NewRegistry()
		}
		rep := metrics.Report{Label: "sbon-sim", Registry: reg}
		if s.tr != nil {
			rep.Trace = s.tr.WriteEventsJSON
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		fmt.Println()
	}
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "simulation seed")
		stubNodes = flag.Int("stub-nodes", 12, "nodes per stub domain (12 => 592 total)")
		streams   = flag.Int("streams", 12, "published streams")
		queries   = flag.Int("queries", 20, "queries to optimize and deploy")
		optName   = flag.String("optimizer", "integrated", "integrated | twostep | multiquery")
		radius    = flag.Float64("radius", 50, "multi-query pruning radius (multiquery only; -1 = unpruned)")
		useDHT    = flag.Bool("dht", true, "use the Hilbert-DHT catalog for physical mapping")

		batchN        = flag.Int("batch", 0, "run the batch scenario with this many queries (0 = classic deploy loop)")
		batchDistinct = flag.Int("batch-distinct", 250, "distinct query shapes the batch cycles through")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "batch worker goroutines")
		batchCompare  = flag.Bool("batch-compare", false, "also time the sequential Optimize loop for comparison")
		batchNoCache  = flag.Bool("batch-no-cache", false, "disable the plan cache in the batch scenario")

		execute     = flag.Bool("execute", false, "deploy the optimized circuits on the stream engine and measure the dataflow")
		dataShards  = flag.Int("data-shards", 1, "execute the data plane on this many parallel event-queue shards, keyed to the optimizer's cost-space regions (requires -execute; results are bit-identical to 1)")
		simSeconds  = flag.Float64("sim-seconds", 10, "simulated measurement window for -execute")
		heartbeatMs = flag.Float64("heartbeat-ms", 500, "per-node heartbeat period in simulated ms for -execute (0 = off)")

		adaptSweeps = flag.Int("adapt", 0, "run this many live adaptation sweeps (with -execute: circuits migrate under traffic; with -adapt-continuous: adapt for this many intervals)")
		adaptBudget = flag.Int("adapt-budget", 16, "max migrations per adaptation sweep")
		adaptDrift  = flag.Float64("adapt-drift", 0.1, "fraction of nodes whose background load drifts before each sweep")
		adaptCont   = flag.Bool("adapt-continuous", false, "run adaptation as a continuous clock-driven loop of incremental sweeps for -adapt intervals (a round that settles late delays the next, so fewer rounds may run)")
		adaptIntMs  = flag.Int("adapt-interval-ms", 500, "continuous adaptation interval (simulated milliseconds)")

		crashFrac = flag.Float64("crash-frac", 0, "fraction of nodes crashing unannounced mid-run; circuits repair automatically (requires -execute)")
		dropProb  = flag.Float64("drop-prob", 0, "ambient per-message drop probability for the failure scenario")

		traceFile   = flag.String("trace", "", "write the run's structured events to this file in Chrome trace-event format (Perfetto-loadable)")
		traceJSONL  = flag.String("trace-jsonl", "", "write the run's structured events to this file as JSON Lines (streamed in constant memory unless -trace or -metrics-dump is set)")
		metricsDump = flag.Bool("metrics-dump", false, "print a JSON report merging the metric registry with the trace to stdout at exit")
	)
	flag.Parse()
	sink := &traceSink{chrome: *traceFile, jsonl: *traceJSONL, dump: *metricsDump}

	if *dataShards > 1 && !*execute {
		fail(fmt.Errorf("-data-shards requires -execute: it is the data plane that shards"))
	}

	spec := scenario.Spec{
		Seed:       *seed,
		Topology:   topology.DefaultConfig(),
		Streams:    workload.DefaultStreamConfig(),
		Queries:    workload.DefaultQueryConfig(),
		UseDHT:     *useDHT,
		DataShards: *dataShards,
	}
	spec.Tracer = sink.open()
	spec.Topology.StubNodes = *stubNodes
	spec.Streams.NumStreams = *streams
	spec.Queries.NumQueries = *queries
	if *batchN > 0 {
		spec.Queries.NumQueries = *batchDistinct
	}
	w, err := scenario.Build(spec)
	if err != nil {
		fail(err)
	}
	defer w.Close()
	topo, env, qs := w.Topo, w.Env, w.Queries
	fmt.Printf("topology: %s\n", topo.ComputeStats())
	fmt.Printf("coordinates: %s\n", env.EmbeddingQuality)

	if *batchN > 0 {
		runBatchScenario(env, qs, *batchN, *workers, *batchCompare, *batchNoCache)
		return
	}

	dep, reg := w.Deployment, w.Deployment.Registry
	truth := optimizer.TrueLatency{Topo: topo}

	r := *radius
	if r < 0 {
		r = math.Inf(1)
	}
	optimize := func(q query.Query) (*optimizer.Result, error) {
		switch strings.ToLower(*optName) {
		case "integrated":
			return optimizer.NewIntegrated(env).Optimize(q)
		case "twostep":
			return optimizer.NewTwoStep(env).Optimize(q)
		case "multiquery":
			return optimizer.NewMultiQuery(env, reg, r).Optimize(q)
		default:
			return nil, fmt.Errorf("unknown optimizer %q", *optName)
		}
	}

	var totalPlans, totalReuse, totalExamined int
	var circuits []*optimizer.Circuit
	for _, q := range qs {
		res, err := optimize(q)
		if err != nil {
			fail(err)
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			fail(err)
		}
		circuits = append(circuits, res.Circuit)
		totalPlans += res.PlansConsidered
		totalReuse += res.ReusedServices
		totalExamined += res.InstancesExamined
		fmt.Printf("q%-3d %-40s usage=%9.1f latency=%6.1fms plans=%2d reused=%d\n",
			q.ID, res.Circuit.Plan, res.Circuit.NetworkUsage(truth),
			res.Circuit.ConsumerLatency(truth), res.PlansConsidered, res.ReusedServices)
	}
	fmt.Printf("\ndeployed %d circuits: total usage %.1f KB·ms/s, load penalty %.2f\n",
		dep.NumDeployed(), dep.TotalUsage(truth), dep.TotalLoadPenalty())
	fmt.Printf("plans considered %d, services reused %d, registry instances examined %d, registered services %d\n",
		totalPlans, totalReuse, totalExamined, reg.Len())

	if *crashFrac > 0 || *dropProb > 0 {
		if !*execute {
			fail(fmt.Errorf("-crash-frac/-drop-prob require -execute: crashes, detection, and repair happen on the data plane"))
		}
		sink.finish(runFailureScenario(w, circuits, *crashFrac, *dropProb, *simSeconds))
		return
	}

	if *adaptSweeps > 0 {
		sink.finish(runAdaptation(w, circuits, *adaptSweeps, *adaptBudget, *adaptDrift, *execute, *simSeconds,
			*adaptCont, *adaptIntMs))
		return
	}

	var runReg *metrics.Registry
	if *execute {
		runReg = runDataPlane(w, circuits, *simSeconds, *heartbeatMs)
	}
	sink.finish(runReg)
}

// execute starts the data plane and the circuits on it — in
// optimization order, so a circuit reusing another's services always
// finds its provider running.
func execute(w *scenario.World, circuits []*optimizer.Circuit) {
	if err := w.StartDataPlane(); err != nil {
		fail(err)
	}
	if err := w.Execute(circuits...); err != nil {
		fail(err)
	}
}

// runDataPlane deploys the circuits on the stream engine and measures
// the executing dataflow against the analytic model. The whole window
// is a deterministic discrete-event run that finishes in milliseconds
// regardless of the simulated duration.
func runDataPlane(w *scenario.World, circuits []*optimizer.Circuit, simSeconds, heartbeatMs float64) *metrics.Registry {
	defer w.Close()
	execute(w, circuits)
	net := w.Net
	if net.DataShards() > 1 {
		fmt.Printf("\ndata plane sharded across %d parallel event queues (lookahead %v)\n", net.DataShards(), w.Lookahead)
	}
	fmt.Printf("\nexecuting %d circuits on the virtual-time engine for %.1f simulated seconds...\n",
		len(circuits), simSeconds)

	truth := optimizer.TrueLatency{Topo: w.Topo}
	var analyticUsage, analyticRate float64
	for _, c := range circuits {
		analyticUsage += c.NetworkUsage(truth)
		analyticRate += c.Plan.OutRate
	}
	if st := w.Engine.SharedStats(); st.Instances > 0 {
		fmt.Printf("shared execution: %d instances feed %d subscriber circuits (no duplicated operators)\n",
			st.Instances, st.Subscribers)
	}
	if heartbeatMs > 0 {
		w.StartHeartbeats(time.Duration(heartbeatMs * float64(time.Millisecond)))
	}
	wallStart := time.Now()
	w.SimSleep(simSeconds)
	wall := time.Since(wallStart)

	var measuredUsage, measuredRate float64
	tuples := 0
	for _, run := range w.Runs {
		m := run.Measure()
		measuredUsage += m.NetworkUsage
		measuredRate += m.OutRateKBs
		tuples += m.TuplesOut
	}
	fmt.Printf("delivered %d tuples, %.0f overlay messages, %.0f heartbeats in %v of wall time\n",
		tuples, net.Metrics.Counter("msgs.sent").Value(), net.Metrics.Counter("hb.recv").Value(), wall.Round(time.Millisecond))
	fmt.Printf("aggregate rate:  analytic %9.1f KB/s    measured %9.1f KB/s  (ratio %.3f)\n",
		analyticRate, measuredRate, measuredRate/analyticRate)
	fmt.Printf("aggregate usage: analytic %9.1f KB·ms/s measured %9.1f KB·ms/s (ratio %.3f)\n",
		analyticUsage, measuredUsage, measuredUsage/analyticUsage)
	return net.Metrics
}

// runAdaptation runs sweep→migrate→settle rounds over the deployed
// circuits with drifting background load. With execute the circuits run
// on the stream engine and every migration is a live buffered handoff;
// without it the moves commit on the control plane only.
func runAdaptation(w *scenario.World, circuits []*optimizer.Circuit,
	sweeps, budget int, drift float64, executing bool, simSeconds float64,
	continuous bool, intervalMs int) *metrics.Registry {

	// Torn down before the trace is written: cancelling the handoffs
	// still in flight ends their spans.
	defer w.Close()
	clk, dep := w.Clock, w.Deployment
	truth := optimizer.TrueLatency{Topo: w.Topo}
	if executing {
		execute(w, circuits)
		w.SimSleep(simSeconds)
	}
	net, runs := w.Net, w.Runs

	co := w.Coordinator()
	co.Budget = budget
	churn := workload.Churn{LoadFraction: drift, LoadMax: 0.9}
	mode := "control-plane only"
	if executing {
		mode = fmt.Sprintf("%d circuits executing", len(runs))
	}
	if continuous {
		interval := time.Duration(intervalMs) * time.Millisecond
		fmt.Printf("\ncontinuous adaptation for %d intervals of %v, budget %d, drift %.0f%% (%s)\n",
			sweeps, interval, budget, drift*100, mode)
		// Drift lands mid-interval as scheduled events; each round's
		// incremental sweep then consumes exactly that delta. Stop closes
		// (in a clock event) a quarter into the last interval.
		for i := 0; i < sweeps; i++ {
			clk.AfterFunc(time.Duration(i)*interval+interval/2, func() { w.Drift(churn) })
		}
		stop := make(chan struct{})
		clk.AfterFunc(time.Duration(sweeps)*interval+interval/4, func() { close(stop) })
		rs, err := co.Run(nil, interval, stop)
		if err != nil {
			fail(err)
		}
		fmt.Printf("rounds=%d full-sweeps=%d migrated=%d services-evaluated=%d usage=%11.1f\n",
			rs.Sweeps, rs.FullSweeps, rs.Migrated, rs.ServicesEvaluated, dep.TotalUsage(truth))
		fmt.Printf("last round: dirty-nodes=%d affected-circuits=%d planned=%d migrated=%d\n",
			rs.Last.DirtyNodes, rs.Last.AffectedCircuits, rs.Last.Planned, rs.Last.Migrated)
		return lossCounters(net)
	}

	fmt.Printf("\nadaptation: %d sweeps, budget %d, drift %.0f%% (%s)\n",
		sweeps, budget, drift*100, mode)
	for i := 1; i <= sweeps; i++ {
		w.Drift(churn)
		r, err := co.Round(nil, nil)
		if err != nil {
			fail(err)
		}
		st := r.Sweep
		settle := st.SettleDuration
		if net != nil {
			settle = time.Duration(net.SimMillis(st.SettleDuration)) * time.Millisecond
		}
		fmt.Printf("sweep %2d: planned=%2d migrated=%2d data-plane=%2d buffered=%3d forwarded=%2d settle=%8v usage=%11.1f load-penalty=%8.2f\n",
			i, st.Planned, st.Migrated, st.DataPlane, st.Buffered, st.Forwarded,
			settle, dep.TotalUsage(truth), dep.TotalLoadPenalty())
	}
	return lossCounters(net)
}

// lossCounters prints the counters live migration must leave at zero
// and returns the run's registry (nil without a data plane).
func lossCounters(net *overlay.Network) *metrics.Registry {
	if net == nil {
		return nil
	}
	fmt.Printf("loss counters: unrouted=%.0f data-to-dead=%.0f (must be 0)\n",
		net.Metrics.Counter("msgs.unrouted").Value(), net.Metrics.Counter("msgs.down_dropped").Value())
	return net.Metrics
}

// runFailureScenario executes the circuits under ambient message loss
// while a fraction of the nodes crashes unannounced, staggered across
// the first half of the window. Heartbeats feed the failure detector
// and the coordinator's repair loop re-places every affected service
// onto live nodes automatically; the scenario reports repair activity
// and the bounded loss counters. Deterministic for a given seed.
func runFailureScenario(w *scenario.World, circuits []*optimizer.Circuit, crashFrac, dropProb, simSeconds float64) *metrics.Registry {
	defer w.Close()
	execute(w, circuits)
	topo, dep, net, vclk := w.Topo, w.Deployment, w.Net, w.Clock
	truth := optimizer.TrueLatency{Topo: topo}

	// Victims: non-endpoint nodes only — a dead pinned producer or
	// consumer cancels its circuit by definition; this scenario measures
	// repair.
	victims := w.CrashVictims(int(crashFrac*float64(topo.NumNodes())+0.5), false)
	warmup := time.Duration(simSeconds/4*1000) * time.Millisecond
	w.InjectFaults(overlay.FaultPlan{Seed: w.Spec.Seed, DropProb: dropProb, Crashes: scenario.StaggerCrashes(victims, warmup, warmup)})
	det := w.StartFailureDetection(200 * time.Millisecond)
	co := w.Coordinator()
	co.Threshold, co.TicketTTL = 0.3, 5*time.Second

	usageBefore := dep.TotalUsage(truth)
	fmt.Printf("\nfailure scenario: crashing %d/%d nodes (%.1f%%) under %.1f%% message loss over %.1f simulated seconds\n",
		len(victims), topo.NumNodes(), 100*float64(len(victims))/float64(topo.NumNodes()), 100*dropProb, simSeconds)
	stop := make(chan struct{})
	vclk.AfterFunc(time.Duration(simSeconds*1000)*time.Millisecond, func() { close(stop) })
	wallStart := time.Now()
	rs, err := co.Run(det, 500*time.Millisecond, stop)
	if err != nil {
		fail(err)
	}
	rep := rs.Repair
	produced, delivered := w.Quiesce()
	wall := time.Since(wallStart)
	fmt.Printf("detector: %d dead confirmed; repair: %d services re-placed (%d zombie, %d adopted), %d circuits cancelled, %d moves aborted\n",
		rep.DeadNodes, rep.Repaired, rep.ZombieRepaired, rep.Adopted, rep.CancelledCircuits, rep.Aborted)
	fmt.Printf("adaptation: %d rounds, %d migrations alongside repair\n", rs.Sweeps, rs.Migrated)
	fmt.Printf("bounded loss: %.0f injector-dropped + %.0f at-dead-nodes + %.0f unrouted + %d handoff-buffered; state lost %.0f KB (produced %d, delivered %d)\n",
		net.Metrics.Counter("faults.dropped").Value(), net.Metrics.Counter("msgs.down_dropped").Value(),
		net.Metrics.Counter("msgs.unrouted").Value(), rep.BufferedLost, rep.StateLostKB, produced, delivered)
	fmt.Printf("network usage: %.1f pre-crash vs %.1f post-repair; wall time %v\n",
		usageBefore, dep.TotalUsage(truth), wall.Round(time.Millisecond))
	for _, n := range victims {
		for id, c := range dep.Circuits() {
			for i, s := range c.Services {
				if s.Node == n {
					fail(fmt.Errorf("q%d service %d still placed on crashed node %d", id, i, n))
				}
			}
		}
	}
	fmt.Printf("all deployed services verified off the crashed nodes (zero manual evacuations)\n")
	return net.Metrics
}

// runBatchScenario tiles the distinct query shapes out to n queries and
// optimizes them all with the concurrent batch path, reporting throughput
// and plan-cache effectiveness, optionally against the sequential loop.
func runBatchScenario(env *optimizer.Env, distinct []query.Query, n, workers int, compare, noCache bool) {
	if len(distinct) == 0 {
		fail(fmt.Errorf("batch scenario has no distinct queries"))
	}
	qs := make([]query.Query, n)
	for i := range qs {
		qs[i] = distinct[i%len(distinct)]
		qs[i].ID = query.QueryID(i + 1)
	}
	fmt.Printf("\nbatch scenario: %d queries (%d distinct shapes), %d workers, cache=%v\n",
		n, len(distinct), workers, !noCache)
	ix := env.CostIndex()
	fmt.Printf("cost index: %d points, epoch %d (shared lock-free by batch workers)\n",
		ix.Len(), ix.Version())

	cache := optimizer.NewPlanCache()
	opts := optimizer.BatchOptions{Workers: workers, Cache: cache, NoCache: noCache}
	start := time.Now()
	results, err := optimizer.OptimizeBatch(env, qs, opts)
	if err != nil {
		fail(err)
	}
	batchDur := time.Since(start)

	var usage float64
	var plans, cached int
	for i := range results {
		usage += results[i].EstimatedUsage
		plans += results[i].PlansConsidered
		if results[i].FromCache {
			cached++
		}
	}
	hits, misses := cache.Stats()
	fmt.Printf("batch:      %v  (%.0f queries/s)\n", batchDur, float64(n)/batchDur.Seconds())
	fmt.Printf("estimated usage Σ %.1f, plans considered %d, cache hits %d / misses %d (%.1f%% of queries answered from cache)\n",
		usage, plans, hits, misses, 100*float64(cached)/float64(n))

	if compare {
		start = time.Now()
		var seqUsage float64
		for _, q := range qs {
			res, err := optimizer.NewIntegrated(env).Optimize(q)
			if err != nil {
				fail(err)
			}
			seqUsage += res.EstimatedUsage
		}
		seqDur := time.Since(start)
		fmt.Printf("sequential: %v  (%.0f queries/s)  speedup %.2fx\n",
			seqDur, float64(n)/seqDur.Seconds(), seqDur.Seconds()/batchDur.Seconds())
		if math.Abs(seqUsage-usage) > 1e-6*math.Max(1, math.Abs(seqUsage)) {
			fail(fmt.Errorf("batch usage Σ %.6f diverges from sequential Σ %.6f", usage, seqUsage))
		}
		fmt.Printf("batch and sequential agree on Σ estimated usage (%.1f)\n", usage)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sbon-sim: %v\n", err)
	os.Exit(1)
}
