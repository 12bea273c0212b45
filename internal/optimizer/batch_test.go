package optimizer

import (
	"testing"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// batchQueries builds a workload of queries with overlapping stream sets
// and varied consumers over the 4-stream test catalog.
func batchQueries(env *Env, n int) []query.Query {
	stubs := env.Topo.StubNodeIDs()
	sets := [][]query.StreamID{
		{0, 1}, {1, 2}, {2, 3}, {0, 2},
		{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3},
	}
	qs := make([]query.Query, n)
	for i := range qs {
		qs[i] = query.Query{
			ID:       query.QueryID(i + 1),
			Consumer: stubs[(i*3)%len(stubs)],
			Streams:  append([]query.StreamID(nil), sets[i%len(sets)]...),
		}
	}
	return qs
}

// circuitsEqual compares the service→node binding, plan shape, and
// estimated usage of two optimization results.
func circuitsEqual(t *testing.T, i int, got, want *Result) {
	t.Helper()
	gc, wc := got.Circuit, want.Circuit
	if gc.Plan.Signature() != wc.Plan.Signature() {
		t.Fatalf("query %d: plan %s, want %s", i, gc.Plan.Signature(), wc.Plan.Signature())
	}
	if len(gc.Services) != len(wc.Services) {
		t.Fatalf("query %d: %d services, want %d", i, len(gc.Services), len(wc.Services))
	}
	for s := range gc.Services {
		if gc.Services[s].Node != wc.Services[s].Node {
			t.Fatalf("query %d service %d: node %d, want %d",
				i, s, gc.Services[s].Node, wc.Services[s].Node)
		}
	}
	if got.EstimatedUsage != want.EstimatedUsage {
		t.Fatalf("query %d: estimated usage %v, want %v", i, got.EstimatedUsage, want.EstimatedUsage)
	}
}

func TestOptimizeBatchMatchesSequential(t *testing.T) {
	for _, useDHT := range []bool{true, false} {
		env, _ := testSetup(t, 7, useDHT)
		qs := batchQueries(env, 40) // overlapping sets, repeated keys

		seq := make([]*Result, len(qs))
		for i, q := range qs {
			res, err := NewIntegrated(env).Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = res
		}

		for _, noCache := range []bool{false, true} {
			got, err := OptimizeBatch(env, qs, BatchOptions{Workers: 4, NoCache: noCache})
			if err != nil {
				t.Fatalf("useDHT=%v noCache=%v: %v", useDHT, noCache, err)
			}
			if len(got) != len(qs) {
				t.Fatalf("got %d results, want %d", len(got), len(qs))
			}
			for i := range got {
				circuitsEqual(t, i, &got[i], seq[i])
			}
		}
	}
}

func TestOptimizeBatchCacheHits(t *testing.T) {
	env, q := testSetup(t, 3, true)
	qs := make([]query.Query, 16)
	for i := range qs {
		qs[i] = q
		qs[i].ID = query.QueryID(i + 1)
	}
	cache := NewPlanCache()
	got, err := OptimizeBatch(env, qs, BatchOptions{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Fatalf("identical repeated queries produced no cache hits (misses=%d)", misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries for one distinct query, want 1", cache.Len())
	}
	// Every cache-hit result must be bit-identical to the full result.
	full := -1
	for i := range got {
		if !got[i].FromCache {
			full = i
			break
		}
	}
	if full < 0 {
		t.Fatal("no full (non-cached) optimization in the batch")
	}
	sawHit := false
	for i := range got {
		circuitsEqual(t, i, &got[i], &got[full])
		if got[i].FromCache {
			sawHit = true
			if got[i].PlansConsidered != 1 {
				t.Fatalf("cache hit reports %d plans considered, want 1", got[i].PlansConsidered)
			}
		}
	}
	if !sawHit {
		t.Fatal("no result marked FromCache despite cache hits")
	}
}

func TestOptimizeBatchErrors(t *testing.T) {
	env, q := testSetup(t, 5, false)
	bad := q
	bad.Streams = []query.StreamID{99} // not in catalog
	if _, err := OptimizeBatch(env, []query.Query{q, bad, q}, BatchOptions{Workers: 3}); err == nil {
		t.Fatal("batch with an unoptimizable query returned nil error")
	}
	res, err := OptimizeBatch(env, nil, BatchOptions{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	if _, err := OptimizeBatch(nil, []query.Query{q}, BatchOptions{}); err == nil {
		t.Fatal("nil env accepted")
	}
}

func TestFreezeIsolatesSnapshot(t *testing.T) {
	env, _ := testSetup(t, 9, true)
	node := topology.NodeID(3)
	snap := env.Freeze()
	if !snap.Frozen() || env.Frozen() {
		t.Fatalf("Frozen(): snap=%v env=%v, want true/false", snap.Frozen(), env.Frozen())
	}

	beforePt := snap.Point(node).Clone()
	beforeLoad := snap.Load(node)
	env.AddServiceLoad(node, 2000) // mutate the live env only
	if env.Load(node) == beforeLoad {
		t.Fatal("live env load unchanged after AddServiceLoad")
	}
	if snap.Load(node) != beforeLoad {
		t.Fatalf("snapshot load moved with the live env: %v != %v", snap.Load(node), beforeLoad)
	}
	if snap.Space().Distance(beforePt, snap.Point(node)) != 0 {
		t.Fatal("snapshot point moved with the live env")
	}

	for name, f := range map[string]func(){
		"SetBackgroundLoad": func() { snap.SetBackgroundLoad(node, 0.1) },
		"AddServiceLoad":    func() { snap.AddServiceLoad(node, 10) },
		"RemoveServiceLoad": func() { snap.RemoveServiceLoad(node, 10) },
		"SetCoordinates":    func() { _, _ = snap.SetCoordinates(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on frozen env did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPlanCacheKeyCanonicalization(t *testing.T) {
	env, _ := testSetup(t, 11, true)
	pc := NewPlanCache()
	stubs := env.Topo.StubNodeIDs()
	a := query.Query{ID: 1, Consumer: stubs[0], Streams: []query.StreamID{2, 0, 1}}
	b := query.Query{ID: 2, Consumer: stubs[0], Streams: []query.StreamID{0, 1, 2}}
	if pc.KeyFor(env.Snapshot, a) != pc.KeyFor(env.Snapshot, b) {
		t.Fatal("stream order changed the cache key")
	}
	c := b
	c.FilterSel = map[query.StreamID]float64{1: 0.5}
	if pc.KeyFor(env.Snapshot, b) == pc.KeyFor(env.Snapshot, c) {
		t.Fatal("filter selectivity did not change the cache key")
	}
	d := b
	d.AggregateFraction = 0.25
	if pc.KeyFor(env.Snapshot, b) == pc.KeyFor(env.Snapshot, d) {
		t.Fatal("aggregate fraction did not change the cache key")
	}
	e := b
	e.Consumer = stubs[1]
	if pc.KeyFor(env.Snapshot, b) == pc.KeyFor(env.Snapshot, e) {
		t.Fatal("consumer did not change the cache key")
	}

	// Moving the consumer's point to another Hilbert cell must change
	// the key: load is a cost-space dimension, so a large load delta
	// relocates the cell.
	before := pc.KeyFor(env.Snapshot, b)
	env.SetBackgroundLoad(stubs[0], 0.95)
	if after := pc.KeyFor(env.Snapshot, b); after == before {
		t.Fatal("large consumer load change did not change the cache cell")
	}
}

// Mutating the environment between batches must flush the plan cache:
// plans enumerated under superseded conditions may no longer be the
// winners, and serving them would break the batch-equals-sequential
// guarantee.
func TestPlanCacheEpochFlush(t *testing.T) {
	env, q := testSetup(t, 17, true)
	qs := make([]query.Query, 8)
	for i := range qs {
		qs[i] = q
		qs[i].ID = query.QueryID(i + 1)
	}
	cache := NewPlanCache()
	if _, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("first batch populated no cache entries")
	}

	// Overload every node that hosted the winner's unpinned services, so
	// the old plan's placement conditions are thoroughly superseded.
	seq0, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seq0.Circuit.UnpinnedServices() {
		env.SetBackgroundLoad(s.Node, 0.99)
	}

	seq, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// The flush empties the cache, so the batch must miss at least once,
	// and at most once per worker: each worker may look the key up
	// before any other has refilled it. Which query index misses
	// depends on scheduling.
	const workers = 2
	_, missesBefore := cache.Stats()
	got, err := OptimizeBatch(env, qs, BatchOptions{Workers: workers, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses-missesBefore < 1 || misses-missesBefore > workers {
		t.Fatalf("batch after a mutation missed the cache %d times, want 1..%d", misses-missesBefore, workers)
	}
	for i := range got {
		circuitsEqual(t, i, &got[i], seq)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after epoch flush + repopulation, want 1", cache.Len())
	}
}

func TestPlanCacheCloneSemantics(t *testing.T) {
	env, q := testSetup(t, 13, false)
	res, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache()
	k := pc.KeyFor(env.Snapshot, q)
	if pc.Get(k) != nil {
		t.Fatal("empty cache returned a plan")
	}
	pc.Put(k, res.Circuit.Plan)
	got := pc.Get(k)
	if got == nil {
		t.Fatal("cache miss after Put")
	}
	if got == res.Circuit.Plan {
		t.Fatal("cache returned the caller's plan pointer, not a clone")
	}
	got.OutRate = -1 // mutating the returned clone must not poison the cache
	if again := pc.Get(k); again.OutRate == -1 {
		t.Fatal("mutation of a returned plan leaked into the cache")
	}
	hits, misses := pc.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestUncostedSentinel(t *testing.T) {
	if !IsUncosted(UncostedUsage) {
		t.Fatal("IsUncosted(UncostedUsage) = false")
	}
	if IsUncosted(0) || IsUncosted(1e300) {
		t.Fatal("IsUncosted true for a real estimate")
	}
}
