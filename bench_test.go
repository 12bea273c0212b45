package sbon_test

import (
	"strconv"
	"testing"

	sbon "github.com/hourglass/sbon"
	"github.com/hourglass/sbon/internal/exp"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
	"github.com/hourglass/sbon/internal/workload"
)

// Benchmarks that report a number the golden artifacts do not pin: an
// experiment's headline result as a custom metric, the optimizer at
// paper scale, re-planning and trace-emission costs. Experiments that
// would only report ns/op are left to TestGoldenSmall, which already
// runs and hashes every artifact; `cmd/sbon-exp` runs the full-scale
// versions.

// colMean averages a numeric column over the table rows.
func colMean(b *testing.B, t *exp.Table, col int) float64 {
	b.Helper()
	var sum float64
	var n int
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkFig1_TwoStepVsIntegrated(b *testing.B) {
	p := exp.DefaultFig1Params(exp.Small)
	p.Seeds = 3
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig1(p)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(colMean(b, last, 5), "usage-ratio")
}

func BenchmarkFig3_PlacementMapping(b *testing.B) {
	p := exp.DefaultFig3Params(exp.Small)
	p.Trials = 30
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig3(p)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Row 0 is the hilbert-dht mapper; column 2 its mean mapping error.
	b.ReportMetric(colMean(b, last, 2)/3, "mean-map-err")
}

func BenchmarkX7_SpringVsWeiszfeld(b *testing.B) {
	p := exp.DefaultX7Params(exp.Small)
	p.Runs = 3
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X7(p)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(colMean(b, last, 3), "weisz/spring")
}

func BenchmarkX9_PlanRewriting(b *testing.B) {
	p := exp.DefaultX9Params(exp.Small)
	p.Seeds = 3
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X9(p)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(colMean(b, last, 5), "recovered-%")
}

// BenchmarkX11_ThousandNodeVirtual runs the 1024-node, 200-circuit
// scenario, a sub-second regeneration.
func BenchmarkX11_ThousandNodeVirtual(b *testing.B) {
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X11(exp.DefaultX11Params(exp.Full))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(colMean(b, last, 6), "rate-ratio")
	b.ReportMetric(colMean(b, last, 7), "usage-ratio")
}

// BenchmarkX12_NodeChurnLiveMigration drains and kills 5% of a 592-node
// overlay mid-execution through the live migration protocol, then
// re-joins them; reported metrics are the data-plane settle times of
// the two phases (simulated ms) and the tuple-loss count (must be 0).
func BenchmarkX12_NodeChurnLiveMigration(b *testing.B) {
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X12(exp.DefaultX12Params(exp.Full))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(colMean(b, last, 5), "settle-sim-ms")
	b.ReportMetric(colMean(b, last, 6), "tuple-loss")
}

// BenchmarkX13_PeriodicAdaptation1024 runs the 1024-node drifting-load
// scenario: 4 adaptation sweeps of live migrations under traffic. The
// reported metric is the total network-usage reduction fraction across
// the sweeps (positive = the trajectory decreased).
func BenchmarkX13_PeriodicAdaptation1024(b *testing.B) {
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X13(exp.DefaultX13Params(exp.Full))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	first, err := strconv.ParseFloat(last.Rows[0][3], 64)
	if err != nil {
		b.Fatal(err)
	}
	final, err := strconv.ParseFloat(last.Rows[len(last.Rows)-1][4], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric((first-final)/first, "usage-reduction")
	b.ReportMetric(colMean(b, last, 2), "migrations/sweep")
}

// Facade-level benchmarks: optimization cost on the paper-scale overlay.

func paperScaleSystem(b *testing.B) *sbon.System {
	b.Helper()
	sys, err := sbon.New(sbon.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	stubs := sys.StubNodes()
	for i := 0; i < 4; i++ {
		if err := sys.AddStream(sbon.StreamID(i), stubs[i*140], 100); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

func BenchmarkIntegratedOptimize592Nodes4Way(b *testing.B) {
	sys := paperScaleSystem(b)
	q := sbon.Query{ID: 1, Consumer: sys.StubNodes()[300], Streams: []sbon.StreamID{0, 1, 2, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoStepOptimize592Nodes4Way(b *testing.B) {
	sys := paperScaleSystem(b)
	q := sbon.Query{ID: 1, Consumer: sys.StubNodes()[300], Streams: []sbon.StreamID{0, 1, 2, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.OptimizeTwoStep(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX14_SharedExecution1024 runs the shared-execution comparison
// (200 queries / 40 shared subtrees on 1024 nodes, reuse on vs off) end
// to end on the virtual clock. The reported metric is the measured
// data-plane usage reduction reuse buys — the §3.4 savings on the wire.
func BenchmarkX14_SharedExecution1024(b *testing.B) {
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X14(exp.DefaultX14Params(exp.Full))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	onUsage, _ := strconv.ParseFloat(last.Rows[0][5], 64)
	offUsage, _ := strconv.ParseFloat(last.Rows[1][5], 64)
	if offUsage > 0 {
		b.ReportMetric(100*(1-onUsage/offUsage), "usage-saved-%")
	}
}

// BenchmarkX15_IncrementalReplanning1024 regenerates the incremental
// re-planning comparison (1024 nodes, 200 circuits, drift rounds from
// 0.5% to 30% of nodes). The reported metric is the services-evaluated
// speedup the delta path buys on the 1%-node drift round.
func BenchmarkX15_IncrementalReplanning1024(b *testing.B) {
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.X15(exp.DefaultX15Params(exp.Full))
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	for _, row := range last.Rows {
		if row[0] == "1" {
			if v, err := strconv.ParseFloat(row[5], 64); err == nil {
				b.ReportMetric(v, "speedup@1%")
			}
		}
	}
}

// Tracer micro-benchmarks: the disabled (nil) path is the cost every
// instrumented call site pays in production, so it must stay within
// noise; the enabled path bounds the per-event recording cost.

func BenchmarkTraceEmitDisabled(b *testing.B) {
	var tr *trace.Tracer
	var ctr uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() && tr.SampleAt(&ctr) {
			tr.Emit("bench", "hop", trace.Int("i", i))
		}
	}
}

func BenchmarkTraceEmitEnabled(b *testing.B) {
	clk := simtime.NewVirtual()
	var tr *trace.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh tracer per full buffer: every emission records, none
		// is counted and dropped past the cap.
		if i%trace.BufferLimit == 0 {
			b.StopTimer()
			tr = trace.New(clk)
			b.StartTimer()
		}
		tr.Emit("bench", "hop", trace.Int("i", i), trace.Num("v", 1.5))
	}
}

// Re-planning benchmarks: the cost of one re-optimization round on the
// 1024-node, 200-circuit deployment after a 1%-node load drift — full
// sweep vs delta-driven incremental sweep over the same sequence of
// drifts. The services-evaluated metric is the work ratio the wall
// clock should track.

func planBench(b *testing.B) (*scenario.World, *optimizer.Reoptimizer) {
	b.Helper()
	spec := scenario.Spec{
		Seed:     31,
		Topology: topology.DefaultConfig(),
		Streams:  workload.DefaultStreamConfig(),
		Queries:  workload.DefaultQueryConfig(),
	}
	spec.Topology.StubNodes = 21 // 1024 nodes
	spec.Streams.NumStreams = 16
	spec.Queries.NumQueries = 200
	spec.Queries.StreamsPerQuery = [2]int{2, 3}
	spec.Queries.AggregateProb = 0
	w, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	env, dep := w.Env, w.Deployment
	results, err := optimizer.OptimizeBatch(env, w.Queries, optimizer.BatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range results {
		if err := dep.Deploy(results[i].Circuit); err != nil {
			b.Fatal(err)
		}
	}
	ro := optimizer.NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	ro.ImprovementThreshold = 0.35
	// Prime the delta watermark and settle initial slack so iterations
	// measure drift response only.
	for i := 0; ; i++ {
		plan, _, err := ro.PlanIncremental()
		if err != nil {
			b.Fatal(err)
		}
		applyBenchPlan(b, dep, plan)
		if len(plan.Moves) == 0 {
			break
		}
		if i > 20 {
			b.Fatal("deployment did not settle")
		}
	}
	return w, ro
}

func applyBenchPlan(b *testing.B, dep *optimizer.Deployment, plan optimizer.MigrationPlan) {
	b.Helper()
	for _, m := range plan.Moves {
		tk, err := dep.BeginMigration(m)
		if err != nil {
			b.Fatal(err)
		}
		if err := tk.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanFull1024(b *testing.B) {
	w, ro := planBench(b)
	evaluated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.Drift(workload.Churn{LoadFraction: 0.01, LoadMax: 0.4})
		b.StartTimer()
		plan, err := ro.Plan()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		evaluated += plan.ServicesEvaluated
		applyBenchPlan(b, w.Deployment, plan)
		w.Env.CompactDirty(w.Env.Epoch()) // keep the unconsumed log bounded
		b.StartTimer()
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "services-evaluated")
}

func BenchmarkPlanIncremental1024(b *testing.B) {
	w, ro := planBench(b)
	evaluated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.Drift(workload.Churn{LoadFraction: 0.01, LoadMax: 0.4})
		b.StartTimer()
		plan, _, err := ro.PlanIncremental()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		evaluated += plan.ServicesEvaluated
		applyBenchPlan(b, w.Deployment, plan)
		b.StartTimer()
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "services-evaluated")
}
