package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
)

// joinFixture builds a DHT-backed environment with a 16-stream catalog
// and n queries joining width of its streams each, every third one
// filtered and every fourth aggregated — the shape of the cold-query
// benchmark, small.
func joinFixture(t *testing.T, width, n int) (*Env, []query.Query) {
	t.Helper()
	topo := smallTopo(t, 3)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	stubs := topo.StubNodeIDs()
	rng := rand.New(rand.NewSource(17))
	const streams = 16
	for i := 0; i < streams; i++ {
		if err := stats.AddStream(query.StreamID(i), stubs[rng.Intn(len(stubs))], 50+rng.Float64()*200); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if err := stats.SetPairSelectivity(query.StreamID(j), query.StreamID(i), 0.3+rng.Float64()*0.6); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultEnvConfig(3)
	cfg.UseDHT = true
	cfg.VivaldiRounds = 25
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]query.Query, n)
	for i := range queries {
		q := query.Query{ID: query.QueryID(i + 1), Consumer: stubs[rng.Intn(len(stubs))]}
		for _, s := range rng.Perm(streams)[:width] {
			q.Streams = append(q.Streams, query.StreamID(s))
		}
		if i%3 == 0 {
			q.FilterSel = map[query.StreamID]float64{q.Streams[0]: 0.5}
		}
		if i%4 == 0 {
			q.AggregateFraction = 0.25
		}
		queries[i] = q
	}
	return env, queries
}

// TestOptimizeAllocCeilings pins what a cold query costs the allocator
// once the optimizer is warm: the one circuit that is returned, its plan
// and the one signature string that plan is signed with — nothing per
// candidate plan or sub-plan. Before the sub-plan table and the scratch
// circuits these fixtures took 202, 1,505 and 14,947 allocations; with
// one signature string per distinct sub-plan, 21, 54 and 267; now 12, 14
// and 16. Ceilings are one above that; they are exact counts, not
// timings.
func TestOptimizeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		width   int
		ceiling float64
	}{{3, 13}, {4, 15}, {5, 17}} {
		env, queries := joinFixture(t, tc.width, 12)
		opt := NewIntegrated(env.Freeze())
		opt.Mapper = placement.DHTMapper{Catalog: env.Catalog()}
		i := 0
		allocs := testing.AllocsPerRun(48, func() {
			if _, err := opt.Optimize(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%d-way: %.1f allocs per cold Optimize", tc.width, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%d-way: %.1f allocs per cold Optimize, ceiling %v", tc.width, allocs, tc.ceiling)
		}
	}
}

// TestPlaceCachedPlanAllocCeiling keeps the cache-hit path of the batch
// optimizer from paying for the cold path's machinery: re-placing a
// cached 2-stream plan took 31 allocations before the sub-plan table
// existed and takes 6 — the Result and the circuit it returns.
func TestPlaceCachedPlanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env, queries := joinFixture(t, 2, 12)
	opt := NewIntegrated(env.Freeze())
	plans := make([]*query.PlanNode, len(queries))
	for i, q := range queries {
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = res.Circuit.Plan
	}
	i := 0
	allocs := testing.AllocsPerRun(48, func() {
		if _, err := placeCachedPlan(opt, queries[i%len(queries)], plans[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("placeCachedPlan: %.1f allocs", allocs)
	if allocs > 7 {
		t.Errorf("placeCachedPlan = %.1f allocs on a 2-stream query, ceiling 7 (31 before the sub-plan table)", allocs)
	}
}

// TestPlanCacheHitAllocCeiling pins what a batch query answered from the
// plan cache costs: the key is encoded into the worker's scratch and
// looked up without materialising a string, and the hit shares the
// stored plan, so a hit pays only for the placed circuit. It took 15
// allocations while the key was formatted with fmt into a fresh string,
// 9 while a hit cloned the stored plan; it takes 6.
func TestPlanCacheHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env, queries := joinFixture(t, 2, 12)
	snap := env.Freeze()
	opt := NewIntegrated(snap)
	cache := NewPlanCache()
	for _, q := range queries {
		if _, err := optimizeOne(snap, opt, cache, q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(48, func() {
		res, err := optimizeOne(snap, opt, cache, queries[i%len(queries)])
		if err != nil {
			t.Fatal(err)
		}
		if !res.FromCache {
			t.Fatalf("query %d missed the warm cache", queries[i%len(queries)].ID)
		}
		i++
	})
	t.Logf("cache hit: %.1f allocs", allocs)
	if allocs > 6 {
		t.Errorf("cache hit = %.1f allocs on a 2-stream query, ceiling 6 (9 with a cloned plan, 15 with the fmt-built key)", allocs)
	}

	// The lookup costs nothing: encoding the key into the worker's
	// scratch and probing the map with string(key.streams) allocate
	// nothing, even for a key too long for the 32-byte stack buffer a
	// non-escaping conversion may use, and the hit returns the stored
	// plan itself.
	key := &opt.state().key
	cache.keyInto(key, snap.Snapshot, queries[0])
	stored := cache.get(key)
	if stored == nil {
		t.Fatalf("query %d missed the warm cache", queries[0].ID)
	}
	q := queries[0]
	q.Streams = []query.StreamID{6, 5, 4, 3, 2, 1}
	q.FilterSel = map[query.StreamID]float64{}
	for _, s := range q.Streams {
		q.FilterSel[s] = 1 / (3 + float64(s))
	}
	cache.keyInto(key, snap.Snapshot, q)
	if len(key.streams) <= 32 {
		t.Fatalf("fixture: key %q fits the conversion's stack buffer", key.streams)
	}
	cache.Put(key.key(), stored)
	var sink *query.PlanNode
	lookup := testing.AllocsPerRun(48, func() {
		cache.keyInto(key, snap.Snapshot, q)
		sink = cache.get(key)
	})
	if sink != stored || lookup != 0 {
		t.Errorf("warm lookup = %.1f allocs, returned the stored plan: %v; want 0 and true", lookup, sink == stored)
	}
}

// circuitBits flattens everything a Result's circuit holds into a
// comparable form, floats by bit pattern.
func circuitBits(r *Result) []uint64 {
	c := r.Circuit
	out := []uint64{math.Float64bits(r.EstimatedUsage), uint64(len(c.Services)), uint64(len(c.Links))}
	str := func(s string) {
		out = append(out, uint64(len(s)))
		for _, b := range []byte(s) {
			out = append(out, uint64(b))
		}
	}
	for _, s := range c.Services {
		out = append(out, uint64(s.Node), math.Float64bits(s.OutRate), math.Float64bits(s.InRate), uint64(len(s.Virtual)))
		if s.Pinned {
			out = append(out, 1)
		}
		for _, v := range s.Virtual {
			out = append(out, math.Float64bits(v))
		}
		str(s.Signature)
		if s.Plan != nil {
			str(s.Plan.Signature())
			out = append(out, math.Float64bits(s.Plan.OutRate), math.Float64bits(s.Plan.Sel))
		}
	}
	for _, l := range c.Links {
		out = append(out, uint64(l.From), uint64(l.To), math.Float64bits(l.Rate))
	}
	var walk func(n *query.PlanNode)
	walk = func(n *query.PlanNode) {
		if n == nil {
			out = append(out, 0)
			return
		}
		str(n.Signature())
		out = append(out, uint64(n.Kind), uint64(n.Stream), math.Float64bits(n.OutRate), math.Float64bits(n.Sel))
		walk(n.Left)
		walk(n.Right)
	}
	walk(c.Plan)
	return out
}

// TestOptimizeResultsDoNotAliasScratch is the aliasing guard for the
// optimizer's recycled storage (sub-plan table, scratch circuits,
// placement problem): a Result kept while the same Integrated optimizes
// 200 more queries must not change by a bit, and must be what a fresh
// Integrated returns for the query.
func TestOptimizeResultsDoNotAliasScratch(t *testing.T) {
	for _, width := range []int{1, 3, 5} {
		env, queries := joinFixture(t, width, 41)
		opt := NewIntegrated(env)
		for i := 0; i < len(queries); i += 13 {
			kept, err := opt.Optimize(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			before := circuitBits(kept)
			for j := 0; j < 200; j++ {
				if _, err := opt.Optimize(queries[(i+1+j)%len(queries)]); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := NewIntegrated(env).Optimize(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			after, want := circuitBits(kept), circuitBits(fresh)
			if !equalBits(before, after) {
				t.Fatalf("width %d query %d: kept result changed while the optimizer was reused", width, i)
			}
			if !equalBits(after, want) {
				t.Fatalf("width %d query %d: reused optimizer's result differs from a fresh optimizer's", width, i)
			}
			for _, s := range kept.Circuit.Services {
				if s.Plan != nil && !planContains(kept.Circuit.Plan, s.Plan) {
					t.Fatalf("width %d query %d: service %s runs a node outside the circuit's own plan", width, i, s.Signature)
				}
			}
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func planContains(root, n *query.PlanNode) bool {
	return root != nil && (root == n || planContains(root.Left, n) || planContains(root.Right, n))
}
