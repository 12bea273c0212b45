package optimizer

import (
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// signed reports whether n carries its signature already, without
// signing it: a copy of n turned into a source over a stream no fixture
// has answers the copied cache if there is one, and its own signature
// if not.
func signed(n *query.PlanNode) bool {
	cp := *n
	cp.Kind, cp.Stream, cp.Left, cp.Right = query.KindSource, -1, nil, nil
	return cp.Signature() != "s-1"
}

// requireSigned fails unless every node of the plan is signed.
func requireSigned(t *testing.T, what string, p *query.PlanNode) {
	t.Helper()
	if p == nil {
		return
	}
	if !signed(p) {
		t.Fatalf("%s: node %s is unsigned", what, p)
	}
	requireSigned(t, what, p.Left)
	requireSigned(t, what, p.Right)
}

// requireSignedCircuit fails unless the circuit's plan is signed and
// every service carries its plan node's signature.
func requireSignedCircuit(t *testing.T, what string, c *Circuit) {
	t.Helper()
	requireSigned(t, what, c.Plan)
	for i, s := range c.Services {
		if s.Plan != nil && (s.Signature == "" || s.Signature != s.Plan.Signature()) {
			t.Fatalf("%s: service %d signature %q, its plan's %q", what, i, s.Signature, s.Plan.Signature())
		}
	}
}

// TestPlansLeaveSigned: no candidate is signed, but every plan that
// leaves the optimizer is, before anything can share it — Optimize's
// circuit (integrated, two-step, multi-query), the plans the cache
// stores and the clones it hands out, and Enumerate's plans.
func TestPlansLeaveSigned(t *testing.T) {
	env, queries := joinFixture(t, 4, 12)
	snap := env.Freeze()
	opt, cache := NewIntegrated(snap), NewPlanCache()
	for _, q := range queries {
		res, err := NewIntegrated(snap).Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSignedCircuit(t, "Integrated.Optimize", res.Circuit)
		if res, err = NewTwoStep(snap).Optimize(q); err != nil {
			t.Fatal(err)
		}
		requireSignedCircuit(t, "TwoStep.Optimize", res.Circuit)
		if res, err = NewMultiQuery(snap, NewRegistry(), 0).Optimize(q); err != nil {
			t.Fatal(err)
		}
		requireSignedCircuit(t, "MultiQuery.Optimize", res.Circuit)
		if res, err = optimizeOne(opt, cache, q, nil); err != nil || res.FromCache {
			t.Fatalf("query %d: cold batch query %v, from cache %v", q.ID, err, res != nil && res.FromCache)
		}
		requireSignedCircuit(t, "a cache miss", res.Circuit)
		plans, err := plan.NewEnumerator(snap.Stats).Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			requireSigned(t, "Enumerate", p)
		}
	}
	for k, i := range cache.entries {
		m := cache.memos[i]
		requireSignedCircuit(t, "the plan cache's stored circuit for "+k.Streams, &Circuit{Plan: m.plan, Services: m.services})
	}
	for _, q := range queries {
		key := &opt.state().key
		key.set(q)
		m, _, ok := cache.get(key)
		if !ok {
			t.Fatalf("query %d missed the warm cache", q.ID)
		}
		requireSigned(t, "PlanCache.get", m.plan)
		res, err := optimizeOne(opt, cache, q, nil)
		if err != nil || !res.FromCache {
			t.Fatalf("query %d: warm batch query %v, from cache %v", q.ID, err, res != nil && res.FromCache)
		}
		requireSignedCircuit(t, "a cache hit", res.Circuit)
	}
}

// regionFixture builds a 108-node DHT environment whose nodes, with
// background load spread over the load axis, fill all 16 regions of a
// 16-way split, and queries whose routing covers every region of a
// sharded batch: in each region two 2-stream queries (one filtered, one
// aggregated) whose consumer and producers all lie in the region, plus
// cross-region 3- and 4-stream queries that fall back. Every query
// appears three times, so workers hit a cache entry together.
func regionFixture(t *testing.T) (*Env, []query.Query) {
	t.Helper()
	topo := topology.MustGenerate(topology.Config{
		TransitDomains: 6, TransitNodes: 2, StubsPerTransit: 2, StubNodes: 4,
		IntraStubLatency: [2]float64{1, 5}, StubUplinkLatency: [2]float64{2, 10},
		IntraTransitLatency: [2]float64{8, 20}, InterTransitLatency: [2]float64{30, 80},
		ExtraStubEdgeProb: 0.2,
	}, rand.New(rand.NewSource(3)))
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEnvConfig(3)
	cfg.UseDHT = true
	cfg.VivaldiRounds = 25
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range env.NodeIDs() {
		env.SetBackgroundLoad(n, float64((i*7)%16)/10.5)
	}
	regions, err := NodeRegions(env, 16)
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]topology.NodeID, 16)
	for n, r := range regions {
		members[r] = append(members[r], topology.NodeID(n))
	}
	rng := rand.New(rand.NewSource(5))
	var qs []query.Query
	add := func(q query.Query) {
		for range 3 {
			q.ID = query.QueryID(len(qs) + 1)
			qs = append(qs, q)
		}
	}
	for r, nodes := range members {
		if len(nodes) == 0 {
			t.Fatalf("fixture: region %d of 16 holds no node", r)
		}
		a, b := query.StreamID(2*r), query.StreamID(2*r+1)
		for _, s := range []query.StreamID{a, b} {
			if err := stats.AddStream(s, nodes[rng.Intn(len(nodes))], 50+rng.Float64()*200); err != nil {
				t.Fatal(err)
			}
		}
		consumer := nodes[len(nodes)-1]
		add(query.Query{Consumer: consumer, Streams: []query.StreamID{a, b}, FilterSel: map[query.StreamID]float64{a: 0.5}})
		add(query.Query{Consumer: consumer, Streams: []query.StreamID{b, a}, AggregateFraction: 0.25})
	}
	for r := range 8 {
		add(query.Query{Consumer: members[r][0], Streams: []query.StreamID{query.StreamID(2 * r), query.StreamID(2*r + 5), query.StreamID(2*r + 16)}})
		add(query.Query{Consumer: members[15-r][0], Streams: []query.StreamID{0, 9, 18, query.StreamID(31 - r)}})
	}
	return env, qs
}

// TestShardedBatchSharesOnlySignedPlans runs a sharded batch over a
// carried cache, its queries spread over all 16 regions and the
// fallback, then answers it again from the warm cache on eight workers
// that hand out the same shared circuits at once. Under -race
// (CI runs it so) a signature or rate written lazily into a plan the
// cache or another worker can reach is a data race; without it, the warm
// answers must equal the cold ones and every plan must be signed.
func TestShardedBatchSharesOnlySignedPlans(t *testing.T) {
	env, qs := regionFixture(t)
	opts := ShardedBatchOptions{Shards: 16, Caches: NewShardedPlanCache(16)}
	cold, stats, err := OptimizeBatchSharded(env, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range stats.Routed {
		if n == 0 {
			t.Fatalf("fixture: no query routed to region %d (%+v)", r, stats)
		}
	}
	if stats.Fallback == 0 {
		t.Fatalf("fixture: no query spans regions (%+v)", stats)
	}
	warm, err := OptimizeBatch(env, qs, BatchOptions{Workers: 8, Cache: opts.Caches.cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		requireSignedCircuit(t, "cold sharded batch", cold[i].Circuit)
		requireSignedCircuit(t, "warm batch", warm[i].Circuit)
		if !warm[i].FromCache {
			t.Fatalf("query %d missed the warm cache", qs[i].ID)
		}
		circuitsEqual(t, i, &warm[i], &cold[i])
	}
}
