package sbon

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// smallOpts keeps facade tests fast (~44 nodes).
func smallOpts(seed int64) Options {
	return Options{
		Seed: seed,
		Topology: TopologyConfig{
			TransitDomains:      2,
			TransitNodes:        2,
			StubsPerTransit:     2,
			StubNodes:           5,
			IntraStubLatency:    [2]float64{1, 5},
			StubUplinkLatency:   [2]float64{2, 10},
			IntraTransitLatency: [2]float64{8, 20},
			InterTransitLatency: [2]float64{30, 80},
			ExtraStubEdgeProb:   0.2,
		},
	}
}

func newSystem(t *testing.T, seed int64) *System {
	t.Helper()
	sys, err := New(smallOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	stubs := sys.StubNodes()
	for i := 0; i < 4; i++ {
		if err := sys.AddStream(StreamID(i), stubs[i*4], 60+float64(i)*30); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := New(Options{Seed: 1, DisableDHT: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Topo.NumNodes(); got != 592 {
		t.Fatalf("default topology has %d nodes, want 592", got)
	}
	if len(sys.StubNodes()) != 576 || len(sys.TransitNodes()) != 16 {
		t.Fatal("node partitions wrong")
	}
}

func TestOptimizeAndDeployLifecycle(t *testing.T) {
	sys := newSystem(t, 2)
	q := Query{ID: 1, Consumer: sys.StubNodes()[19], Streams: []StreamID{0, 1, 2}}
	res, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit == nil || res.PlansConsidered == 0 {
		t.Fatalf("result = %+v", res)
	}
	if u := sys.Usage(res.Circuit); u <= 0 {
		t.Fatalf("usage = %v", u)
	}
	if l := sys.Latency(res.Circuit); l <= 0 {
		t.Fatalf("latency = %v", l)
	}
	if err := sys.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	if got := sys.TotalUsage(); math.Abs(got-sys.Usage(res.Circuit)) > 1e-9 {
		t.Fatalf("TotalUsage %v != circuit usage %v", got, sys.Usage(res.Circuit))
	}
	if err := sys.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if sys.TotalUsage() != 0 {
		t.Fatal("usage after cancel nonzero")
	}
}

func TestTwoStepNeverBeatsIntegratedHere(t *testing.T) {
	sys := newSystem(t, 3)
	q := Query{ID: 2, Consumer: sys.StubNodes()[0], Streams: []StreamID{0, 1, 2, 3}}
	ri, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sys.OptimizeTwoStep(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both select under the coordinate model; compare on that model where
	// the superset guarantee holds.
	if ri.EstimatedUsage > rt.EstimatedUsage+1e-9 {
		t.Fatalf("integrated estimate %v worse than two-step %v", ri.EstimatedUsage, rt.EstimatedUsage)
	}
}

func TestOptimizeSharedReuse(t *testing.T) {
	sys := newSystem(t, 4)
	q1 := Query{ID: 3, Consumer: sys.StubNodes()[5], Streams: []StreamID{0, 1}}
	r1, err := sys.OptimizeShared(q1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(r1.Circuit); err != nil {
		t.Fatal(err)
	}
	q2 := Query{ID: 4, Consumer: sys.StubNodes()[12], Streams: []StreamID{0, 1}}
	fresh, err := sys.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.OptimizeShared(q2, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedServices == 0 {
		t.Fatal("identical query found no reusable service")
	}
	// Under the selection model, the shared candidate set is a superset
	// of the fresh one, so reuse can only help.
	if r2.EstimatedUsage > fresh.EstimatedUsage+1e-9 {
		t.Fatalf("shared estimate %v worse than fresh %v", r2.EstimatedUsage, fresh.EstimatedUsage)
	}
	if err := sys.Deploy(r2.Circuit); err != nil {
		t.Fatal(err)
	}
	// Total usage = first circuit + marginal links of the second only.
	total := sys.TotalUsage()
	if total <= sys.Usage(r1.Circuit) {
		t.Fatal("second circuit added no marginal usage?")
	}
}

func TestSetBackgroundLoadAndReoptimize(t *testing.T) {
	sys := newSystem(t, 5)
	q := Query{ID: 5, Consumer: sys.StubNodes()[7], Streams: []StreamID{0, 1, 2}}
	res, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	victim := res.Circuit.UnpinnedServices()[0].Node
	sys.SetBackgroundLoad(victim, 0.99)
	stats, err := sys.Adapt(AdaptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].ServicesEvaluated == 0 {
		t.Fatal("no services evaluated")
	}
}

func TestEngineEndToEnd(t *testing.T) {
	sys, err := New(smallOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddStream(0, sys.StubNodes()[2], 50); err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 6, Consumer: sys.StubNodes()[15], Streams: []StreamID{0}}
	res, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(res.Circuit); err == nil {
		t.Fatal("Run before StartEngine accepted")
	}
	if err := sys.StartEngine(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartEngine(); err == nil {
		t.Fatal("double StartEngine accepted")
	}
	run, err := sys.Run(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(8); err != nil {
		t.Fatal(err)
	}
	m := run.Measure()
	if m.TuplesOut == 0 {
		t.Fatal("no tuples delivered through facade")
	}
	if err := sys.StopRun(q.ID); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // idempotent
	// Close is terminal: nothing that needs the clock restarts.
	if err := sys.StartEngine(); err == nil {
		t.Fatal("StartEngine after Close accepted")
	}
	if err := sys.RunFor(1); err == nil {
		t.Fatal("RunFor after Close accepted")
	}
	if _, err := sys.StopAfter(1); err == nil {
		t.Fatal("StopAfter after Close accepted")
	}
}

// TestFacadeReportEmbedsTrace: WriteReport's "trace" section of a
// traced System holds, element by element, the exact lines the
// tracer's JSONL stream writes for the same run.
func TestFacadeReportEmbedsTrace(t *testing.T) {
	opts := smallOpts(6)
	opts.Trace = true
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i, producer := range []int{2, 9} {
		if err := sys.AddStream(StreamID(i), sys.StubNodes()[producer], 400); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.Optimize(Query{ID: 1, Consumer: sys.StubNodes()[15], Streams: []StreamID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartEngine(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(res.Circuit); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(1); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := sys.WriteReport(&report, "facade"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Trace []json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(report.Bytes(), &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if len(doc.Trace) == 0 {
		t.Fatal("traced run reported an empty trace")
	}
	var jsonl bytes.Buffer
	sys.Tracer().StreamJSONL(&jsonl)
	if err := sys.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(jsonl.Bytes(), []byte{'\n'}), []byte{'\n'})
	if len(lines) != len(doc.Trace) {
		t.Fatalf("report holds %d trace events, the JSONL stream %d", len(doc.Trace), len(lines))
	}
	for i, ev := range doc.Trace {
		if !bytes.Equal(ev, lines[i]) {
			t.Fatalf("trace event %d: report %s, JSONL %s", i, ev, lines[i])
		}
	}
}

func TestStopRunWithoutEngine(t *testing.T) {
	sys := newSystem(t, 7)
	if err := sys.StopRun(1); err == nil {
		t.Fatal("StopRun without engine accepted")
	}
}

func TestSetJoinSelectivityFlowsIntoPlans(t *testing.T) {
	sys := newSystem(t, 8)
	if err := sys.SetJoinSelectivity(0, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 9, Consumer: sys.StubNodes()[3], Streams: []StreamID{0, 1, 2}}
	res, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// With sel(0,1) tiny, the best plan joins 0⋈1 first.
	sigs := map[string]bool{}
	for _, s := range res.Circuit.Services {
		if s.Plan != nil {
			sigs[s.Plan.Signature()] = true
		}
	}
	if !sigs["join(s0,s1)"] {
		t.Fatalf("plan ignored selective pair: %v", res.Circuit.Plan)
	}
}

func TestInvalidTopologyOption(t *testing.T) {
	_, err := New(Options{Topology: TopologyConfig{TransitDomains: -1, TransitNodes: 1}})
	if err == nil {
		t.Fatal("invalid topology accepted")
	}
}

var _ = topology.Config{} // keep explicit dependency for the alias check below

func TestTypeAliasesUsable(t *testing.T) {
	var n NodeID = 5
	var s StreamID = 2
	var q QueryID = 1
	if int(n)+int(s)+int(q) != 8 {
		t.Fatal("aliases broken")
	}
}

// Across random seeds, the integrated optimizer's estimate can never
// exceed the two-step baseline's: under one selection model it evaluates
// a strict superset of candidate circuits through the same pipeline.
func TestIntegratedSupersetGuaranteeAcrossSeeds(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		sys := newSystem(t, seed)
		q := Query{ID: 1, Consumer: sys.StubNodes()[int(seed)%16], Streams: []StreamID{0, 1, 2, 3}}
		ri, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sys.OptimizeTwoStep(q)
		if err != nil {
			t.Fatal(err)
		}
		if ri.EstimatedUsage > rt.EstimatedUsage+1e-9 {
			t.Fatalf("seed %d: integrated estimate %v > two-step %v", seed, ri.EstimatedUsage, rt.EstimatedUsage)
		}
	}
}

// Batch optimization through the facade must agree with the sequential
// path per query, use the System's persistent plan cache across batches,
// and leave the live environment untouched. Run with -race.
func TestFacadeOptimizeBatch(t *testing.T) {
	sys := newSystem(t, 10)
	sets := [][]StreamID{{0, 1}, {1, 2}, {0, 1, 2}, {0, 1, 2, 3}}
	var qs []Query
	for i := 0; i < 24; i++ {
		qs = append(qs, Query{
			ID:       QueryID(i + 1),
			Consumer: sys.StubNodes()[(i*5)%len(sys.StubNodes())],
			Streams:  sets[i%len(sets)],
		})
	}
	seq := make([]*Result, len(qs))
	for i, q := range qs {
		res, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = res
	}
	batch, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if got, want := batch[i].Circuit.Plan.Signature(), seq[i].Circuit.Plan.Signature(); got != want {
			t.Fatalf("query %d: batch plan %s != sequential %s", i, got, want)
		}
		for s := range batch[i].Circuit.Services {
			if batch[i].Circuit.Services[s].Node != seq[i].Circuit.Services[s].Node {
				t.Fatalf("query %d service %d: batch node %d != sequential %d",
					i, s, batch[i].Circuit.Services[s].Node, seq[i].Circuit.Services[s].Node)
			}
		}
		if batch[i].EstimatedUsage != seq[i].EstimatedUsage {
			t.Fatalf("query %d: batch usage %v != sequential %v",
				i, batch[i].EstimatedUsage, seq[i].EstimatedUsage)
		}
	}
	// The second identical batch should be answered mostly from the
	// System's persistent cache.
	if _, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	hits, _, entries := sys.PlanCacheStats()
	if hits == 0 || entries == 0 {
		t.Fatalf("persistent plan cache unused: hits=%d entries=%d", hits, entries)
	}
}

// TestBatchCachedPlansStayUnwritten pins what sharing cached plans
// rests on: once a plan leaves the optimizer nothing writes it. A batch
// fills the System's plan cache and a warm batch answers from it, so
// its circuits share the stored trees; deploying those circuits, two
// adaptation rounds, a rewrite sweep, a plan-bank compile and another
// batch must leave every tree equal to the copy taken before them, and
// re-rating any of them must change no bit.
func TestBatchCachedPlansStayUnwritten(t *testing.T) {
	sys := newSystem(t, 12)
	sets := [][]StreamID{{0, 1}, {1, 0}, {1, 2}, {0, 1, 2}, {2, 3, 0}, {0, 1, 2, 3}}
	var qs []Query
	for i := 0; i < 24; i++ {
		qs = append(qs, Query{
			ID:       QueryID(i + 1),
			Consumer: sys.StubNodes()[(i*3)%8],
			Streams:  sets[i%len(sets)],
		})
	}
	cold, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	copies := make(map[*query.PlanNode]*query.PlanNode)
	for _, r := range cold {
		copies[r.Circuit.Plan] = r.Circuit.Plan.Clone()
	}
	requireUnwritten := func(stage string) {
		t.Helper()
		for p, c := range copies {
			if !reflect.DeepEqual(p, c) {
				t.Fatalf("%s wrote a shared plan: %s", stage, p.Signature())
			}
			rerated := p.Clone()
			if err := rerated.ComputeRates(sys.Stats); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rerated, p) {
				t.Fatalf("after %s re-rating plan %s changed it", stage, p.Signature())
			}
		}
	}
	requireUnwritten("the cold batch")

	warm, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range warm {
		if _, shared := copies[r.Circuit.Plan]; !r.FromCache || !shared {
			t.Fatalf("query %d: warm answer from cache %v, shares a stored plan %v", qs[i].ID, r.FromCache, shared)
		}
		if err := sys.Deploy(r.Circuit); err != nil {
			t.Fatal(err)
		}
	}
	requireUnwritten("the warm batch and deploy")

	for i, n := range sys.StubNodes()[:8] {
		sys.SetBackgroundLoad(n, 0.1*float64(i))
	}
	rounds, err := sys.Adapt(AdaptOptions{Sweeps: 2, Threshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if rounds[0].Migrated == 0 {
		t.Fatalf("fixture: the first round migrated nothing (%+v)", rounds)
	}
	if st, err := sys.Rewrite(); err != nil || st.VariantsCosted == 0 {
		t.Fatalf("fixture: the rewrite sweep costed no variant (%+v, %v)", st, err)
	}
	if _, err := optimizer.NewPlanBank(sys.Env).Compile(qs[5], 4, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	requireUnwritten("adaptation, rewriting, a plan bank and a second batch")
}

// Changing catalog statistics between batches must flush the plan
// cache: the old winning plan shape may no longer be optimal.
func TestFacadeBatchStatsChangeFlushesCache(t *testing.T) {
	sys := newSystem(t, 11)
	q := Query{ID: 1, Consumer: sys.StubNodes()[3], Streams: []StreamID{0, 1, 2}}
	qs := []Query{q, q, q, q}
	if _, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetJoinSelectivity(0, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	seq, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := sys.PlanCacheStats()
	batch, err := sys.OptimizeBatch(qs, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A cache that kept its pre-change entry would answer all four
	// queries from it. Which query misses is up to the workers: one may
	// miss and store the fresh plan before another looks it up.
	if _, misses, _ := sys.PlanCacheStats(); misses == missesBefore {
		t.Fatal("every query after a statistics change was served from the stale cache")
	}
	for i := range batch {
		if batch[i].Circuit.Plan.Signature() != seq.Circuit.Plan.Signature() {
			t.Fatalf("query %d: batch plan %s != fresh sequential %s",
				i, batch[i].Circuit.Plan.Signature(), seq.Circuit.Plan.Signature())
		}
		if batch[i].EstimatedUsage != seq.EstimatedUsage {
			t.Fatalf("query %d: batch usage %v != fresh sequential %v",
				i, batch[i].EstimatedUsage, seq.EstimatedUsage)
		}
	}
}

// TestFacadeMappingPolicy pins the default System's written mapping
// policy: Optimize and Rewrite map through the DHT, while
// PlanReoptimization sweeps with the oracle over its shadow and walks no
// ring.
func TestFacadeMappingPolicy(t *testing.T) {
	sys := newSystem(t, 9)
	tr := trace.New(nil)
	sys.Env.Catalog().Ring().SetTracer(tr)
	lookups := func() int {
		n := 0
		for _, ev := range tr.Events() {
			if ev.Cat == "dht" && ev.Name == "lookup" && ev.Ph == trace.Begin {
				n++
			}
		}
		return n
	}
	q := Query{ID: 1, Consumer: sys.StubNodes()[3], Streams: []StreamID{0, 1, 2, 3}}
	res, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if lookups() == 0 || res.MapStats.PeersWalked == 0 {
		t.Fatal("Optimize did not map through the DHT")
	}
	two, err := sys.OptimizeTwoStep(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(two.Circuit); err != nil {
		t.Fatal(err)
	}
	before := lookups()
	if st, err := sys.Rewrite(); err != nil || st.VariantsCosted == 0 {
		t.Fatalf("rewrite costed no variant: %+v, %v", st, err)
	}
	if lookups() == before {
		t.Fatal("Rewrite did not map through the DHT")
	}
	sys.SetBackgroundLoad(two.Circuit.UnpinnedServices()[0].Node, 5)
	before = lookups()
	plan, err := sys.PlanReoptimization()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ServicesEvaluated == 0 {
		t.Fatal("the sweep evaluated nothing")
	}
	if lookups() != before {
		t.Fatal("PlanReoptimization walked the DHT; its sweeps map with the oracle")
	}
}

// Rewriting through the facade must never increase total usage.
func TestFacadeRewrite(t *testing.T) {
	sys := newSystem(t, 9)
	q := Query{ID: 1, Consumer: sys.StubNodes()[3], Streams: []StreamID{0, 1, 2, 3}}
	res, err := sys.OptimizeTwoStep(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	before := sys.TotalUsage()
	stats, err := sys.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CircuitsEvaluated != 1 {
		t.Fatalf("evaluated %d circuits", stats.CircuitsEvaluated)
	}
	if after := sys.TotalUsage(); after > before+1e-9 {
		t.Fatalf("rewrite increased usage %v -> %v", before, after)
	}
}

// TestFacadeDefaultIsDeterministic: a System built with default Options
// runs on the discrete-event clock — RunFor(30) moves it by exactly 30
// simulated seconds — and two same-seed runs measure the same to the
// bit.
func TestFacadeDefaultIsDeterministic(t *testing.T) {
	measure := func() Measurement {
		sys, err := New(smallOpts(9))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if err := sys.AddStream(0, sys.StubNodes()[2], 50); err != nil {
			t.Fatal(err)
		}
		q := Query{ID: 1, Consumer: sys.StubNodes()[15], Streams: []StreamID{0}}
		res, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(1); err == nil {
			t.Fatal("RunFor before StartEngine accepted")
		}
		if err := sys.StartEngine(); err != nil {
			t.Fatal(err)
		}
		run, err := sys.Run(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		start := sys.w.Clock.Now()
		if err := sys.RunFor(30); err != nil {
			t.Fatal(err)
		}
		if got := sys.w.Clock.Since(start); got != 30*time.Second {
			t.Fatalf("RunFor(30) moved the clock by %v, want exactly 30s", got)
		}
		m := run.Measure()
		if m.TuplesOut == 0 {
			t.Fatal("no tuples delivered")
		}
		if m.SimSeconds < 29.999 || m.SimSeconds > 30.001 {
			t.Fatalf("SimSeconds = %v, want 30", m.SimSeconds)
		}
		if err := sys.StopRun(q.ID); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := measure(), measure(); a != b {
		t.Fatalf("same-seed default-Options runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestFacadeDataShardsBitIdentical pins the facade contract of
// Options.DataShards: the parallel data plane is an execution strategy
// only — measurements are bit-identical to the single-queue run for any
// shard count.
func TestFacadeDataShardsBitIdentical(t *testing.T) {
	measure := func(shards int) Measurement {
		opts := smallOpts(9)
		opts.DataShards = shards
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if err := sys.AddStream(0, sys.StubNodes()[2], 50); err != nil {
			t.Fatal(err)
		}
		q := Query{ID: 1, Consumer: sys.StubNodes()[15], Streams: []StreamID{0}}
		res, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.StartEngine(); err != nil {
			t.Fatal(err)
		}
		run, err := sys.Run(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(30); err != nil {
			t.Fatal(err)
		}
		return run.Measure()
	}
	base := measure(1)
	if base.TuplesOut == 0 {
		t.Fatal("no tuples delivered")
	}
	for _, shards := range []int{2, 4} {
		if m := measure(shards); m != base {
			t.Fatalf("DataShards=%d diverged from single queue:\n%+v\n%+v", shards, m, base)
		}
	}
}

// adaptSystem deploys a few circuits on the virtual-time engine and
// overloads a host so adaptation has work.
func adaptSystem(t *testing.T, seed int64) (*System, []QueryID) {
	t.Helper()
	opts := smallOpts(seed)
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	stubs := sys.StubNodes()
	for i := 0; i < 3; i++ {
		if err := sys.AddStream(StreamID(i), stubs[i*5], 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.StartEngine(); err != nil {
		t.Fatal(err)
	}
	var ids []QueryID
	var victim NodeID = -1
	for i, streams := range [][]StreamID{{0, 1}, {1, 2}, {0, 2}} {
		q := Query{ID: QueryID(i + 1), Consumer: stubs[(i*7+2)%len(stubs)], Streams: streams}
		res, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deploy(res.Circuit); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(res.Circuit); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q.ID)
		if victim < 0 {
			for _, s := range res.Circuit.UnpinnedServices() {
				victim = s.Node
				break
			}
		}
	}
	if err := sys.RunFor(2); err != nil {
		t.Fatal(err)
	}
	if victim >= 0 {
		sys.SetBackgroundLoad(victim, 5.0)
	}
	return sys, ids
}

func TestFacadeAdaptMigratesLiveCircuits(t *testing.T) {
	sys, _ := adaptSystem(t, 11)
	plan, err := sys.PlanReoptimization()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned: adaptSystem at seed 11 must overload a host that a move relieves")
	}
	stats, err := sys.Adapt(AdaptOptions{Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d sweep stats, want 2", len(stats))
	}
	if stats[0].Migrated == 0 {
		t.Fatal("first sweep migrated nothing off an overloaded host")
	}
	if stats[0].DataPlane == 0 {
		t.Fatal("no live data-plane handoffs for running circuits")
	}
	if err := sys.RunFor(2); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEvacuate(t *testing.T) {
	sys, _ := adaptSystem(t, 12)
	// Find a node hosting an unpinned service.
	var victim NodeID = -1
	for _, c := range sys.Deployment.Circuits() {
		for _, s := range c.UnpinnedServices() {
			if victim < 0 || s.Node < victim {
				victim = s.Node
			}
		}
	}
	if victim < 0 {
		t.Fatal("nothing to evacuate: adaptSystem at seed 12 must place an operator")
	}
	st, err := sys.Evacuate([]NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated == 0 {
		t.Fatal("evacuation moved nothing")
	}
	for _, c := range sys.Deployment.Circuits() {
		for _, s := range c.UnpinnedServices() {
			if s.Node == victim {
				t.Fatalf("service still on evacuated node %d", victim)
			}
		}
	}
}

// TestFacadeCrashRepairEndToEnd drives the whole unplanned-failure
// pipeline through the facade: fault injection crashes an operator
// host, heartbeats feed the detector, and AdaptContinuously re-places
// the stranded services onto live nodes — no Evacuate calls. Before
// StartFailureDetection the same loop repairs nothing.
func TestFacadeCrashRepairEndToEnd(t *testing.T) {
	sys, _ := adaptSystem(t, 13)
	pinned := map[NodeID]bool{}
	for _, c := range sys.Deployment.Circuits() {
		for _, s := range c.Services {
			if s.Pinned {
				pinned[s.Node] = true
			}
		}
	}
	var victim NodeID = -1
	for _, c := range sys.Deployment.Circuits() {
		for _, s := range c.UnpinnedServices() {
			if !pinned[s.Node] && (victim < 0 || s.Node < victim) {
				victim = s.Node
			}
		}
	}
	if victim < 0 {
		t.Fatal("no crashable host: adaptSystem at seed 13 must place an operator on a node that pins no endpoint")
	}
	onVictim := func() int {
		n := 0
		for _, c := range sys.Deployment.Circuits() {
			for _, s := range c.Services {
				if s.Node == victim {
					n++
				}
			}
		}
		return n
	}
	if _, err := sys.InstallFaults(FaultPlan{
		Seed:     13,
		DropProb: 0.01,
		Crashes:  []NodeCrash{{Node: victim, At: time.Second}},
	}); err != nil {
		t.Fatal(err)
	}

	// The victim dies a second into this run, and nothing detects it.
	hosted := onVictim()
	stop, err := sys.StopAfter(2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.AdaptContinuously(500*time.Millisecond, stop, AdaptOptions{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Repair != (RepairStats{}) {
		t.Fatalf("repair before StartFailureDetection: %+v", rs.Repair)
	}
	if got := onVictim(); got != hosted {
		t.Fatalf("%d services on the victim before detection started, %d after", hosted, got)
	}

	det, err := sys.StartFailureDetection(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stop, err = sys.StopAfter(6); err != nil {
		t.Fatal(err)
	}
	rs, err = sys.AdaptContinuously(500*time.Millisecond, stop, AdaptOptions{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rep := rs.Repair
	if rep.DeadNodes != 1 {
		t.Fatalf("DeadNodes = %d, want 1", rep.DeadNodes)
	}
	if rep.Repaired == 0 {
		t.Fatal("no services repaired after the crash")
	}
	if rep.CancelledCircuits != 0 {
		t.Fatalf("cancelled %d circuits; victim hosted no endpoint", rep.CancelledCircuits)
	}
	if dead := det.DeadNodes(); len(dead) != 1 || dead[0] != victim {
		t.Fatalf("detector dead set = %v, want [%d]", dead, victim)
	}
	for id, c := range sys.Deployment.Circuits() {
		for i, s := range c.Services {
			if s.Node == victim {
				t.Fatalf("q%d service %d still on crashed node %d", id, i, victim)
			}
		}
	}
}
