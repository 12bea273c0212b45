package optimizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
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

// allocsPerCall returns the exact mean allocation count of f(0) …
// f(n-1), counted after one warm-up pass over the same calls
// (AllocsPerRun alone truncates its mean to a whole number).
func allocsPerCall(n int, f func(i int)) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := range n {
			f(i)
		}
	}) / float64(n)
}

// TestOptimizeAllocCeilings pins what a cold query costs the allocator,
// as an exact mean over 48 queries. For a warm Integrated it is a share
// of the blocks its Result, circuit, plan and signature are carved from
// — nothing per candidate plan or sub-plan. Before the sub-plan table
// and the scratch circuits these fixtures took 202, 1,505 and 14,947
// allocations; with one signature string per distinct sub-plan, 21, 54
// and 267; with a heap copy of the winner, 12, 14 and 16; carved from
// the Builder's blocks but for the signature string, 1.13, 1.17 and
// 1.20 over 480 queries; with the signature carved from the byte block
// too, 0.14, 0.19 and 0.23 (0.125, 0.167 and 0.229 over these 48). The
// ceiling is one above that.
// The foils cost their candidates through the same loop and pay,
// besides, for what only they do: TwoStep's own enumeration, PlanBank's
// compile and re-rating, MultiQuery's reuse search (radius 40 over the
// fixture's own deployed circuits, so reuse variants are costed). The
// one-shot rows build a new optimizer per query, as the sbon facade and
// sbon-sim do; a PlanBank compiles 4 jitter states first, as X10 does.
// The warm rows reuse one instance, as X14 and Fig. 4 reuse one
// MultiQuery; a TwoStep keeps nothing between calls. While every
// candidate was placed on a heap circuit of its own they took: TwoStep
// 39.583, one-shot PlanBank 242.500 (warm 34.167), one-shot MultiQuery
// 82.667 (warm alike) and RelaxationStrategy.PlaceCircuit 19. Each
// foil's ceiling is its count now rounded up, none above those. These
// are exact counts, not timings.
func TestOptimizeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	type optimize func(query.Query) (*Result, error)
	integrated := func(env *Env, _ []query.Query) optimize {
		opt := NewIntegrated(env.Freeze())
		opt.Mapper = placement.DHTMapper{Catalog: env.Catalog()}
		return opt.Optimize
	}
	deployed := func(env *Env, queries []query.Query) *Registry {
		dep := NewDeployment(env, nil)
		for _, q := range queries {
			res, err := NewIntegrated(env).Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := dep.Deploy(res.Circuit); err != nil {
				t.Fatal(err)
			}
		}
		return dep.Registry
	}
	for _, tc := range []struct {
		name    string
		width   int
		ceiling float64
		build   func(env *Env, queries []query.Query) optimize
	}{
		{"Integrated", 3, 1, integrated},
		{"Integrated", 4, 1, integrated},
		{"Integrated", 5, 1, integrated},
		{"TwoStep", 3, 39, func(env *Env, _ []query.Query) optimize {
			return func(q query.Query) (*Result, error) { return NewTwoStep(env).Optimize(q) }
		}},
		{"RelaxationStrategy one-shot", 3, 19, func(env *Env, queries []query.Query) optimize {
			best := map[query.QueryID]*query.PlanNode{}
			for _, q := range queries {
				p, err := plan.NewEnumerator(env.Stats).Best(q)
				if err != nil {
					t.Fatal(err)
				}
				best[q.ID] = p
			}
			var res Result
			return func(q query.Query) (*Result, error) {
				c, err := RelaxationStrategy{}.PlaceCircuit(env, q, best[q.ID])
				res.Circuit = c
				return &res, err
			}
		}},
		{"PlanBank warm", 3, 1, func(env *Env, queries []query.Query) optimize {
			pb := NewPlanBank(env.Freeze())
			pb.Mapper = placement.DHTMapper{Catalog: env.Catalog()}
			for _, q := range queries {
				if _, err := pb.Compile(q, 4, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			return pb.Optimize
		}},
		{"PlanBank one-shot", 3, 69, func(env *Env, _ []query.Query) optimize {
			return func(q query.Query) (*Result, error) {
				pb := NewPlanBank(env)
				if _, err := pb.Compile(q, 4, 0.5); err != nil {
					return nil, err
				}
				return pb.Optimize(q)
			}
		}},
		{"MultiQuery warm", 3, 19, func(env *Env, queries []query.Query) optimize {
			mq := NewMultiQuery(env, deployed(env, queries), 40)
			mq.Mapper = placement.DHTMapper{Catalog: env.Catalog()}
			return mq.Optimize
		}},
		{"MultiQuery one-shot", 3, 66, func(env *Env, queries []query.Query) optimize {
			reg := deployed(env, queries)
			return func(q query.Query) (*Result, error) { return NewMultiQuery(env, reg, 40).Optimize(q) }
		}},
	} {
		env, queries := joinFixture(t, tc.width, 12)
		optimize := tc.build(env, queries)
		variants := 0
		allocs := allocsPerCall(48, func(i int) {
			res, err := optimize(queries[i%len(queries)])
			if err != nil {
				t.Fatal(err)
			}
			variants += res.CircuitsConsidered - res.PlansConsidered
		})
		t.Logf("%s %d-way: %.3f allocs per cold Optimize", tc.name, tc.width, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s %d-way: %.3f allocs per cold Optimize, ceiling %v", tc.name, tc.width, allocs, tc.ceiling)
		}
		if strings.HasPrefix(tc.name, "MultiQuery") && variants == 0 {
			t.Errorf("fixture: MultiQuery costed no reuse variant")
		}
	}
}

// TestMissedQueryAllocCeiling pins the churn path of a batch worker:
// after a flush every query misses the plan cache, is optimized in
// full, and its result is stored by value, as a copy of its circuit's
// header, under a key carved from the worker's byte block, next to the
// plan's signature, with its Result written where the batch keeps it,
// and a flush clears the map instead of replacing it. Past warm-up that
// costs only shares of blocks: 0.09 over 561 misses, where it took 2.11
// while the signature and the key were strings of their own and a flush
// made a new map.
func TestMissedQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env, all := joinFixture(t, 2, 600)
	var queries []query.Query
	seen := map[PlanCacheKey]bool{}
	for _, q := range all {
		var k planKey
		k.set(q)
		if key := k.key(); !seen[key] {
			seen[key] = true
			queries = append(queries, q)
		}
	}
	if len(queries) < 400 {
		t.Fatalf("fixture: %d distinct keys, want at least 400", len(queries))
	}
	opt, cache := NewIntegrated(env.Freeze()), NewPlanCache()
	results := make([]Result, len(queries))
	// AllocsPerRun runs one pass to warm the worker, then the counted
	// one, each after a flush, as a new generation starts.
	total := testing.AllocsPerRun(1, func() {
		cache.flush()
		for i, q := range queries {
			res, err := optimizeOne(opt, cache, q, &results[i])
			if err != nil || res.FromCache {
				t.Fatalf("query %d: err %v, hit %v; want a miss", q.ID, err, res != nil && res.FromCache)
			}
		}
	})
	per := total / float64(len(queries))
	t.Logf("%.3f allocs per miss over %d misses", per, len(queries))
	if per > 0.25 {
		t.Errorf("%.3f allocs per batch miss, ceiling 0.25", per)
	}
}

// TestPlanCacheHitAllocCeiling pins what a batch query answered from the
// plan cache costs: the key is encoded into the worker's scratch and
// looked up without materialising a string, and the hit shares the
// stored circuit, so a hit pays only for its share of the block its
// circuit header is carved from. It took 15 allocations while the key
// was formatted with fmt into a fresh string, 9 while a hit cloned the
// stored plan, 6 while the circuit was a heap copy, and 0.07 while a
// hit placed its circuit again on blocks of its own; a hit may now cost
// at most 0.01, its Result written where the batch keeps it.
func TestPlanCacheHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env, queries := joinFixture(t, 2, 12)
	snap := env.Freeze()
	opt := NewIntegrated(snap)
	cache := NewPlanCache()
	for _, q := range queries {
		if _, err := optimizeOne(opt, cache, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	const hits = 4800
	results := make([]Result, hits)
	// One warm-up pass, then the counted one.
	total := testing.AllocsPerRun(1, func() {
		for i := range results {
			res, err := optimizeOne(opt, cache, queries[i%len(queries)], &results[i])
			if err != nil {
				t.Fatal(err)
			}
			if !res.FromCache {
				t.Fatalf("query %d missed the warm cache", queries[i%len(queries)].ID)
			}
		}
	})
	per := total / hits
	t.Logf("cache hit: %.4f allocs over %d hits", per, hits)
	if per > 0.01 {
		t.Errorf("cache hit = %.4f allocs on a 2-stream query, ceiling 0.01 (0.07 placing the circuit again, 6 with a heap-copied circuit, 9 with a cloned plan, 15 with the fmt-built key)", per)
	}

	// The lookup costs nothing: encoding the key into the worker's
	// scratch and probing the map with string(key.streams) allocate
	// nothing, even for a key too long for the 32-byte stack buffer a
	// non-escaping conversion may use, and the hit returns the stored
	// circuit itself.
	key := &opt.state().key
	key.set(queries[0])
	stored, _, ok := cache.get(key)
	if !ok {
		t.Fatalf("query %d missed the warm cache", queries[0].ID)
	}
	q := queries[0]
	q.Streams = []query.StreamID{6, 5, 4, 3, 2, 1}
	q.FilterSel = map[query.StreamID]float64{}
	for _, s := range q.Streams {
		q.FilterSel[s] = 1 / (3 + float64(s))
	}
	key.set(q)
	if len(key.streams) <= 32 {
		t.Fatalf("fixture: key %q fits the conversion's stack buffer", key.streams)
	}
	cache.put(key, &opt.builder().bytes, stored)
	var sink memo
	lookup := testing.AllocsPerRun(48, func() {
		key.set(q)
		sink, _, ok = cache.get(key)
	})
	if !ok || sink.plan != stored.plan || &sink.services[0] != &stored.services[0] || lookup != 0 {
		t.Errorf("warm lookup = %.1f allocs, returned the stored circuit: %v; want 0 and true", lookup, ok && sink.plan == stored.plan)
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
// placement problem) and for the blocks its results are carved from: a
// Result kept while the same Integrated optimizes at least 200 more
// queries must not change by a bit, and must be what a fresh Integrated
// returns for the query. Cache hits, kept across 200 more batch queries,
// must not change either; nor must their block neighbours when one of
// them is written the way callers write circuits.
func TestOptimizeResultsDoNotAliasScratch(t *testing.T) {
	for _, width := range []int{1, 3, 5} {
		env, queries := joinFixture(t, width, 41)
		opt := NewIntegrated(env)
		// Every 13th result is kept through the rest of the pass and
		// 200 more queries.
		kept, before := map[int]*Result{}, map[int][]uint64{}
		for j := range len(queries) + 200 {
			res, err := opt.Optimize(queries[j%len(queries)])
			if err != nil {
				t.Fatal(err)
			}
			if j < len(queries) && j%13 == 0 {
				kept[j], before[j] = res, circuitBits(res)
			}
		}
		for i, res := range kept {
			fresh, err := NewIntegrated(env).Optimize(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			after, want := circuitBits(res), circuitBits(fresh)
			if !equalBits(before[i], after) {
				t.Fatalf("width %d query %d: kept result changed while the optimizer was reused", width, i)
			}
			if !equalBits(after, want) {
				t.Fatalf("width %d query %d: reused optimizer's result differs from a fresh optimizer's", width, i)
			}
			for _, s := range res.Circuit.Services {
				if s.Plan != nil && !planContains(res.Circuit.Plan, s.Plan) {
					t.Fatalf("width %d query %d: service %s runs a node outside the circuit's own plan", width, i, s.Signature)
				}
			}
		}
		keptHitsStayPut(t, width, env, queries)
	}
}

// keptHitsStayPut keeps a batch worker's cache hits, neighbours in its
// blocks, across 200 more batch queries, then writes one of them in
// place — a service re-bound, a link appended, the circuit rebuilt over
// a larger plan and re-placed — and requires every other to be
// unchanged. (A hit shares its services with its key's entry, so
// callers deploy it, which copies them, before writing.)
func keptHitsStayPut(t *testing.T, width int, env *Env, queries []query.Query) {
	t.Helper()
	opt, cache := NewIntegrated(env.Freeze()), NewPlanCache()
	var kept []*Result
	var before [][]uint64
	for j := range 2 * len(queries) {
		res, err := optimizeOne(opt, cache, queries[j%len(queries)], nil)
		if err != nil {
			t.Fatal(err)
		}
		if j >= len(queries) {
			if !res.FromCache {
				t.Fatalf("width %d: query %d missed the warm cache", width, queries[j%len(queries)].ID)
			}
			kept, before = append(kept, res), append(before, circuitBits(res))
		}
	}
	for j := range 200 {
		if _, err := optimizeOne(opt, cache, queries[(7*j)%len(queries)], nil); err != nil {
			t.Fatal(err)
		}
	}
	w := kept[len(kept)/2].Circuit
	s := w.Services[w.rootIdx]
	s.Node, s.Virtual = w.Consumer().Node, append(s.Virtual, 1)
	w.Links = append(w.Links, Link{From: w.rootIdx, To: w.consumerIdx, Rate: 1})
	larger := query.NewJoin(w.Plan, kept[0].Circuit.Plan)
	larger.OutRate = 1
	b := &Builder{Env: env}
	if err := b.skeletonInto(w, w.Query, larger, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.PlaceVirtual(w, placement.Relaxation{}); err != nil {
		t.Fatal(err)
	}
	for j, res := range kept {
		if res.Circuit != w && !equalBits(before[j], circuitBits(res)) {
			t.Fatalf("width %d: kept cache hit %d changed (the written one is %d)", width, j, len(kept)/2)
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
