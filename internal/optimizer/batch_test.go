package optimizer

import (
	"slices"
	"strings"
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

	// Within one epoch the key is a pure function of the query: the live
	// env and its frozen view agree, a batch filling the cache moves
	// nothing, and the query's ID is not part of it.
	frozen := env.Freeze()
	renamed := b
	renamed.ID = 99
	want := pc.KeyFor(env.Snapshot, b)
	check := func(when string) {
		t.Helper()
		for _, s := range []*Snapshot{env.Snapshot, frozen.Snapshot} {
			for _, q := range []query.Query{b, renamed} {
				if got := pc.KeyFor(s, q); got != want {
					t.Fatalf("%s: key of query %d = %+v, want %+v", when, q.ID, got, want)
				}
			}
		}
	}
	check("before a batch")
	epoch := env.Epoch()
	if _, err := OptimizeBatch(env, []query.Query{b, renamed}, BatchOptions{Workers: 2, Cache: pc}); err != nil {
		t.Fatal(err)
	}
	if env.Epoch() != epoch || pc.Get(want) == nil {
		t.Fatalf("batch moved the epoch %d -> %d or stored nothing under the key", epoch, env.Epoch())
	}
	check("after a batch")
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

// TestRevalidatedHitCarvesNothing: a load change starts a new
// snapshot and keeps the cache's entries, and each entry's first hit in
// it is revalidated. A revalidated entry is stamped where it lies: it
// must carve nothing from the worker's byte block, as storing it again
// under a fresh copy of its key did, once per key and load change.
func TestRevalidatedHitCarvesNothing(t *testing.T) {
	env, queries := joinFixture(t, 2, 12)
	cache := NewPlanCache()
	snap, _, _ := cache.current(env, 0)
	opt := NewIntegrated(snap)
	for _, q := range queries {
		if res, err := optimizeOne(opt, cache, q, nil); err != nil || res.PlansConsidered != 1 {
			t.Fatalf("query %d: err %v; want a single-plan miss", q.ID, err)
		}
	}
	entries := cache.Len()
	env.SetBackgroundLoad(topologyID(env.Topo.NumNodes()-1), 0.01)
	snap, _, _ = cache.current(env, 0)
	if cache.Len() != entries {
		t.Fatalf("a load change left %d of %d entries", cache.Len(), entries)
	}
	opt = NewIntegrated(snap)
	key, b := &opt.state().key, opt.builder()
	revalidated := 0
	for _, q := range queries {
		key.set(q)
		if _, found, valid := cache.get(key); !found || valid {
			continue // a repeated key, valid since its first hit
		}
		before := len(b.bytes)
		res, err := optimizeOne(opt, cache, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FromCache {
			continue
		}
		revalidated++
		if len(b.bytes) != before {
			t.Fatalf("query %d: a revalidated hit carved %d bytes", q.ID, len(b.bytes)-before)
		}
		if _, _, valid := cache.get(key); !valid {
			t.Fatalf("query %d: the revalidated entry is not valid in the new snapshot", q.ID)
		}
	}
	if revalidated == 0 {
		t.Fatal("fixture: no entry survived revalidation")
	}
}

// TestPlanCacheSharingSemantics pins the cache's sharing contract: an
// entry keeps a header of its own over the plan, services and links of
// the circuit its miss placed, and a hit is a header of its own too,
// carrying the hit's Query, over the same three, with the miss's usage
// and mapping statistics. Every circuit answered from one entry shares
// them, and nobody writes them.
func TestPlanCacheSharingSemantics(t *testing.T) {
	env, q := testSetup(t, 13, false)
	snap := env.Freeze()
	opt, cache := NewIntegrated(snap), NewPlanCache()
	k := cache.KeyFor(snap.Snapshot, q)
	if cache.Get(k) != nil {
		t.Fatal("empty cache returned a plan")
	}
	cold, err := optimizeOne(opt, cache, q, nil)
	if err != nil || cold.FromCache {
		t.Fatalf("cold query: %v, from cache %v", err, cold != nil && cold.FromCache)
	}
	renamed := q
	renamed.ID = q.ID + 100
	warm, err := optimizeOne(opt, cache, renamed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	wc, cc := warm.Circuit, cold.Circuit
	if !warm.FromCache || wc == cc || wc.Plan != cc.Plan || &wc.Services[0] != &cc.Services[0] || &wc.Links[0] != &cc.Links[0] {
		t.Fatalf("a hit is not a header of its own over the stored circuit (from cache %v)", warm.FromCache)
	}
	if wc.Query.ID != renamed.ID || warm.PlansConsidered != 1 || warm.CircuitsConsidered != 1 ||
		warm.EstimatedUsage != cold.EstimatedUsage || warm.MapStats != cold.MapStats {
		t.Fatalf("hit: query %d, %d plans, %d circuits, usage %v, %+v; want query %d, 1, 1, %v, %+v",
			wc.Query.ID, warm.PlansConsidered, warm.CircuitsConsidered, warm.EstimatedUsage, warm.MapStats,
			renamed.ID, cold.EstimatedUsage, cold.MapStats)
	}
	// The entry's header is its own: rewriting the miss's header, as
	// Deploy does, leaves what later hits get alone.
	cc.Services, cc.Links = nil, nil
	if again, err := optimizeOne(opt, cache, q, nil); err != nil || &again.Circuit.Services[0] != &wc.Services[0] {
		t.Fatalf("after the miss's header was rewritten the entry answers %v (err %v)", again, err)
	}
}

// TestBatchCarvedStringsStayPut guards the strings a batch carves from
// its workers' byte blocks. The keys a miss stores and the signatures of
// the plans it returns share blocks with every string carved after them,
// so a carve that wrote over bytes it had handed out would change them
// under the cache. Batch A fills the cache; batches B and C then miss on
// fresh workers in the same epoch. Every key and signature from A must
// still read as its copy, and every key must still hit.
func TestBatchCarvedStringsStayPut(t *testing.T) {
	env, queries := joinFixture(t, 3, 600)
	third := len(queries) / 3
	cache := NewPlanCache()
	resA, err := OptimizeBatch(env, queries[:third], BatchOptions{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	type kept struct{ s, copy string }
	var keys []PlanCacheKey
	var strs []kept
	keep := func(s string) { strs = append(strs, kept{s, strings.Clone(s)}) }
	cache.mu.RLock()
	for k, i := range cache.entries {
		p := cache.memos[i].plan
		keys = append(keys, k)
		keep(k.Streams)
		if got, want := p.Signature(), resigned(p); got != want {
			t.Fatalf("cached plan signed %q, its structure signs %q", got, want)
		}
		keep(p.Signature())
	}
	cache.mu.RUnlock()
	for i := range resA {
		for _, s := range resA[i].Circuit.Services {
			if s.Plan != nil {
				keep(s.Signature)
				keep(s.Plan.Signature())
			}
		}
	}
	for _, qs := range [][]query.Query{queries[third : 2*third], queries[2*third:]} {
		if _, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() <= len(keys) {
		t.Fatalf("fixture: batches B and C stored no key of their own (%d keys after A, %d after C)", len(keys), cache.Len())
	}
	for _, k := range strs {
		if k.s != k.copy {
			t.Fatalf("carved string changed: %q, was %q", k.s, k.copy)
		}
	}
	for _, k := range keys {
		if cache.Get(k) == nil {
			t.Fatalf("key %v from batch A no longer hits", k)
		}
	}
	for _, q := range queries[:third] {
		if cache.Get(cache.KeyFor(env.Snapshot, q)) == nil {
			t.Fatalf("query %d of batch A no longer hits", q.ID)
		}
	}
}

// resigned signs a copy of the tree under n built with ShallowClone,
// which drops every cached signature.
func resigned(n *query.PlanNode) string {
	var cp func(n *query.PlanNode) *query.PlanNode
	cp = func(n *query.PlanNode) *query.PlanNode {
		if n == nil {
			return nil
		}
		out := n.ShallowClone()
		out.Left, out.Right = cp(n.Left), cp(n.Right)
		return out
	}
	return cp(n).Signature()
}

// TestBatchMemoSurvivesDeployAndMigration: hits of one key share the
// services and links of the circuit the key's miss placed. Deploying
// two of them and committing a migration of one's unpinned service must
// move that one alone: the deployment and the caller's *Circuit show
// the new node, while the other result, the cache entry and a later
// batch's hit keep the placement the cache made. The deployment runs
// over an equal env of its own, so the cache's generation outlives it.
func TestBatchMemoSurvivesDeployAndMigration(t *testing.T) {
	env, q := testSetup(t, 3, true)
	qs := make([]query.Query, 4)
	for i := range qs {
		qs[i] = q
		qs[i].ID = query.QueryID(i + 1)
	}
	cache := NewPlanCache()
	got, err := OptimizeBatch(env, qs, BatchOptions{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].FromCache || !got[1].FromCache || !got[2].FromCache {
		t.Fatal("fixture: want a miss, then hits")
	}
	moved, other := got[1].Circuit, got[2].Circuit
	svc := slices.IndexFunc(moved.Services, func(s *PlacedService) bool { return !s.Pinned && s.Plan != nil })
	if svc < 0 {
		t.Fatal("fixture: the circuit has no unpinned service")
	}
	from := moved.Services[svc].Node
	to := (from + 1) % topology.NodeID(env.Topo.NumNodes())
	otherBefore := circuitBits(&got[2])
	entryNode := func() topology.NodeID {
		cache.mu.RLock()
		defer cache.mu.RUnlock()
		for _, i := range cache.entries {
			return cache.memos[i].services[svc].Node
		}
		t.Fatal("the cache holds no entry")
		return 0
	}

	depEnv, _ := testSetup(t, 3, true)
	dep := NewDeployment(depEnv, nil)
	for _, c := range []*Circuit{moved, other} {
		if err := dep.Deploy(c); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := dep.BeginMigration(Migration{Query: moved.Query.ID, Service: svc, From: from, To: to})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Commit(); err != nil {
		t.Fatal(err)
	}

	if deployed, _ := dep.Circuit(moved.Query.ID); deployed != moved || moved.Services[svc].Node != to {
		t.Fatalf("the caller's circuit shows node %d after the migration to %d", moved.Services[svc].Node, to)
	}
	if !slices.Equal(circuitBits(&got[2]), otherBefore) {
		t.Fatal("migrating one deployed hit changed another")
	}
	if n := entryNode(); n != from {
		t.Fatalf("the cache entry's service moved to node %d, was %d", n, from)
	}
	later, err := OptimizeBatch(env, qs[:1], BatchOptions{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !later[0].FromCache || !slices.Equal(circuitBits(&later[0]), otherBefore) {
		t.Fatalf("a later hit (from cache %v) differs from the placement the cache made", later[0].FromCache)
	}
}
