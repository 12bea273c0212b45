package optimizer

import (
	"math/bits"
	"slices"
	"sync"
	"testing"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// TestOptimizeBatchShardedMatchesGlobal is the shard-vs-global
// equivalence guarantee: every query — region-local or fallback — must
// produce the bit-identical placement and estimated usage it gets from
// OptimizeBatch, because the sharded batch only counts routing and then
// runs OptimizeBatch over one freeze of the same environment. Runs with
// and without a DHT catalog, with and without caches.
func TestOptimizeBatchShardedMatchesGlobal(t *testing.T) {
	for _, useDHT := range []bool{true, false} {
		for _, noCache := range []bool{false, true} {
			env, _ := testSetup(t, 7, useDHT)
			qs := batchQueries(env, 60)

			want, err := OptimizeBatch(env, qs, BatchOptions{NoCache: true})
			if err != nil {
				t.Fatalf("OptimizeBatch: %v", err)
			}
			got, stats, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{
				Shards: 4, NoCache: noCache,
			})
			if err != nil {
				t.Fatalf("OptimizeBatchSharded: %v", err)
			}
			if stats.Shards != 4 {
				t.Fatalf("stats.Shards = %d, want 4", stats.Shards)
			}
			routed := stats.Fallback
			for _, n := range stats.Routed {
				routed += n
			}
			if routed != len(qs) {
				t.Fatalf("routing accounted for %d of %d queries (stats %+v)", routed, len(qs), stats)
			}
			// The batch encodes only the nodes its queries name; the
			// counts are those of every node's region.
			requireRouting(t, env, qs, stats)
			for i := range qs {
				circuitsEqual(t, i, &got[i], &want[i])
			}
		}
	}
}

// TestOptimizeBatchShardedDeterministic re-runs the same sharded batch
// (fresh caches each time) and demands identical results and routing —
// exercised under -race in CI since the workers run concurrently.
func TestOptimizeBatchShardedDeterministic(t *testing.T) {
	env, _ := testSetup(t, 11, true)
	qs := batchQueries(env, 80)

	r1, s1, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Fallback != s2.Fallback {
		t.Fatalf("fallback count differs: %d vs %d", s1.Fallback, s2.Fallback)
	}
	for r := range s1.Routed {
		if s1.Routed[r] != s2.Routed[r] {
			t.Fatalf("shard %d routed %d vs %d", r, s1.Routed[r], s2.Routed[r])
		}
	}
	for i := range qs {
		circuitsEqual(t, i, &r2[i], &r1[i])
	}
}

// requireRouting checks a sharded batch's routing counts against
// NodeRegions, a fresh count over every node's region.
func requireRouting(t *testing.T, env *Env, qs []query.Query, stats *ShardStats) {
	t.Helper()
	regions, err := NodeRegions(env, stats.Shards)
	if err != nil {
		t.Fatal(err)
	}
	wantRouted, wantFallback := make([]int, stats.Shards), 0
	for _, q := range qs {
		r, local := regions[q.Consumer], true
		for _, sid := range q.Streams {
			p, known := env.Stats.Producer(sid)
			local = local && known && regions[p] == r
		}
		if local {
			wantRouted[r]++
		} else {
			wantFallback++
		}
	}
	if !slices.Equal(stats.Routed, wantRouted) || stats.Fallback != wantFallback {
		t.Fatalf("routing %v + %d fallback, want %v + %d from NodeRegions", stats.Routed, stats.Fallback, wantRouted, wantFallback)
	}
}

// TestShardedPlanCachePersists checks that a carried ShardedPlanCache
// turns the second identical batch into cache hits.
func TestShardedPlanCachePersists(t *testing.T) {
	env, _ := testSetup(t, 7, true)
	qs := batchQueries(env, 40)
	caches := NewShardedPlanCache(4)

	first, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range qs {
		circuitsEqual(t, i, &second[i], &first[i])
		if second[i].FromCache {
			hits++
		}
	}
	if hits != len(qs) {
		t.Fatalf("second batch hit cache on %d/%d queries", hits, len(qs))
	}
}

// TestBatchBuildsTheIndexOnlyForTheOracle is the one-view contract for
// the k-NN index: under DHT mapping nothing reads it, so neither the
// batch's snapshot nor the live env builds one; under the oracle the
// snapshot builds it, or shares the live env's when that one is
// epoch-current, and the live env is left as it was.
func TestBatchBuildsTheIndexOnlyForTheOracle(t *testing.T) {
	env, _ := testSetup(t, 7, true)
	qs := batchQueries(env, 40)
	// The workers' own snapshot, read the way OptimizeBatch's workers
	// read it, so a worker that built the index lazily would show here.
	snap := freezeForBatch(env)
	opt, cache := NewIntegrated(snap), NewPlanCache()
	for _, q := range qs {
		if _, err := optimizeOne(opt, cache, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OptimizeBatch(env, qs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if snap.idx.Load() != nil || env.idx.Load() != nil {
		t.Fatal("a DHT-mapped batch built a k-NN index nothing reads")
	}

	env, _ = testSetup(t, 7, false)
	if _, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if env.idx.Load() != nil {
		t.Fatal("an oracle-mapped batch built an index on the live env")
	}
	if freezeForBatch(env).idx.Load() == nil {
		t.Fatal("an oracle-mapped batch snapshot has no index for its workers")
	}
	live := env.CostIndex()
	if freezeForBatch(env).idx.Load() != live {
		t.Fatal("the batch snapshot rebuilt the live env's epoch-current index")
	}

	// One generation, one freeze: oracle batches on one cache at one
	// epoch share its snapshot and the snapshot's index, and the live
	// env still builds none; a load change starts a new generation.
	env, _ = testSetup(t, 7, false)
	caches := NewShardedPlanCache(4)
	cache = caches.cache
	var snaps [2]*Env
	for i := range snaps {
		if _, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		snaps[i] = cache.gen.snap
	}
	if ix := snaps[0].idx.Load(); snaps[0] != snaps[1] || ix == nil || snaps[1].idx.Load() != ix {
		t.Fatal("two batches of one generation froze or indexed twice")
	}
	if env.idx.Load() != nil {
		t.Fatal("an oracle-mapped batch built an index on the live env")
	}
	env.SetBackgroundLoad(env.Topo.StubNodeIDs()[0], 0.3)
	if _, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if snap := cache.gen.snap; snap == snaps[0] || snap.Epoch() != env.Epoch() || snap.idx.Load() == nil {
		t.Fatal("a load change did not refreeze and reindex the generation's snapshot")
	}

	// The sharded batches of a generation share its region map and
	// count what a fresh NodeRegions does; two at once, on a generation
	// whose map is still empty, fill it without a data race.
	for range 2 {
		_, stats, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches})
		if err != nil {
			t.Fatal(err)
		}
		requireRouting(t, env, qs, stats)
	}
	env.SetBackgroundLoad(env.Topo.StubNodeIDs()[0], 0.1)
	var stats [2]*ShardStats
	var errs [2]error
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stats[i], errs[i] = OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches})
		}()
	}
	wg.Wait()
	for i := range stats {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireRouting(t, env, qs, stats[i])
	}
}

// TestBatchAfterCatalogRepairMatchesFreshFreeze: a crash repair of the
// DHT catalog retires the dead node's coordinate without moving the
// env's epoch. The cache's generation must end with it: the next batch
// must answer what a sequential optimizer on a fresh Freeze does, and
// place nothing on the dead node, where the first batch placed a
// service. On testSetup's 20 nodes every mapping walk covers the whole
// ring, so a stale entry revalidates to the fresh answer anyway; the
// 68-node batch world's walks cover part of it, and its fixed crash
// leaves entries that a revalidation would serve with the hop counts of
// the old ring.
func TestBatchAfterCatalogRepairMatchesFreshFreeze(t *testing.T) {
	small, _ := testSetup(t, 9, true)
	world := newBatchWorld(t, true)
	for _, tc := range []struct {
		env  *Env
		qs   []query.Query
		dead topology.NodeID // -1: the first host of a placed service that is no endpoint
	}{
		{small, batchQueries(small, 40), -1},
		{world.env, world.pool, 59},
	} {
		env, qs := tc.env, tc.qs
		cache := NewPlanCache()
		first, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		// The dead node hosts a placed service and no query's endpoint,
		// so a correct answer exists without it.
		endpoints := map[topology.NodeID]bool{}
		for _, q := range qs {
			endpoints[q.Consumer] = true
			for _, sid := range q.Streams {
				p, _ := env.Stats.Producer(sid)
				endpoints[p] = true
			}
		}
		dead, hosts := tc.dead, map[topology.NodeID]bool{}
		for i := range first {
			for _, s := range first[i].Circuit.UnpinnedServices() {
				if hosts[s.Node] = true; dead < 0 && !endpoints[s.Node] {
					dead = s.Node
				}
			}
		}
		if !hosts[dead] || endpoints[dead] {
			t.Fatalf("fixture: dead node %d hosts no placed service or is a query endpoint", dead)
		}
		epoch := env.Epoch()
		if rep := env.Catalog().RepairAfterCrash([]topology.NodeID{dead}); rep.Unpublished != 1 || env.Epoch() != epoch {
			t.Fatalf("fixture: the repair unpublished %d nodes and moved the epoch %d -> %d", rep.Unpublished, epoch, env.Epoch())
		}
		got, err := OptimizeBatch(env, qs, BatchOptions{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewIntegrated(env.Freeze())
		for i, q := range qs {
			want, err := fresh.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswer(t, i, &got[i], want)
			for _, s := range got[i].Circuit.Services {
				if s.Node == dead {
					t.Fatalf("query %d: a service placed on dead node %d", q.ID, dead)
				}
			}
		}
	}
}

// TestBatchAfterMutationMatchesFreshFreeze: load changes patch the live
// env's index; the next batch must not read the patches and must answer
// exactly what a sequential optimizer on a fresh Freeze does.
func TestBatchAfterMutationMatchesFreshFreeze(t *testing.T) {
	for _, useDHT := range []bool{false, true} {
		env, _ := testSetup(t, 9, useDHT)
		qs := batchQueries(env, 40)
		caches := NewShardedPlanCache(4)
		if _, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches}); err != nil {
			t.Fatal(err)
		}
		env.CostIndex() // as a sequential Optimize on the live env does
		for i, n := range env.Topo.StubNodeIDs()[:5] {
			env.SetBackgroundLoad(n, 0.2*float64(i))
		}
		if ix := env.idx.Load(); ix == nil || ix.NumPatched() == 0 {
			t.Fatal("fixture: the load changes did not patch the live index")
		}
		if snap := freezeForBatch(env); !useDHT && snap.idx.Load().NumPatched() != 0 {
			t.Fatal("the batch snapshot carries the live index's patches")
		}
		got, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 4, Caches: caches})
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewIntegrated(env.Freeze())
		for i, q := range qs {
			want, err := fresh.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			circuitsEqual(t, i, &got[i], want)
		}
	}
}

// TestNodeRegionsMatchCatalogKeys: on a fresh env the region map and
// the DHT catalog key the same points in the same dht frame, so a node's
// region is the top log2(k) bits of its catalog key.
func TestNodeRegionsMatchCatalogKeys(t *testing.T) {
	env, _ := testSetup(t, 7, true)
	for _, k := range []int{2, 8, 16} {
		regions, err := NodeRegions(env, k)
		if err != nil {
			t.Fatal(err)
		}
		shift := 64 - uint(bits.TrailingZeros(uint(k)))
		for _, n := range env.NodeIDs() {
			if want := int32(env.Catalog().KeyOf(env.Point(n)) >> shift); regions[n] != want {
				t.Fatalf("k=%d node %d: region %d, catalog key prefix %d", k, n, regions[n], want)
			}
		}
	}
}

// TestNodeRegionsReturnsACopy: what the exported NodeRegions returns is
// the caller's; overwriting it must not move any query's routing.
func TestNodeRegionsReturnsACopy(t *testing.T) {
	env, _ := testSetup(t, 7, true)
	qs := batchQueries(env, 60)
	opts := ShardedBatchOptions{Shards: 4, NoCache: true}
	_, before, err := OptimizeBatchSharded(env, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if before.Routed[0] == len(qs) {
		t.Fatal("fixture: every query routed to region 0, so overwriting with 0 proves nothing")
	}
	out, err := NodeRegions(env, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		out[i] = 0
	}
	_, after, err := OptimizeBatchSharded(env, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Fallback != before.Fallback || !slices.Equal(after.Routed, before.Routed) {
		t.Fatalf("routing moved after the caller overwrote NodeRegions' slice: %+v, was %+v", after, before)
	}
}

// TestShardRoundingAndRouting pins the power-of-two rounding and the
// fallback path for queries whose footprint spans regions.
func TestShardRoundingAndRouting(t *testing.T) {
	if got := RoundShards(0); got != 8 {
		t.Fatalf("RoundShards(0) = %d, want 8", got)
	}
	if got := RoundShards(13); got != 8 {
		t.Fatalf("RoundShards(13) = %d, want 8", got)
	}
	if got := RoundShards(16); got != 16 {
		t.Fatalf("RoundShards(16) = %d, want 16", got)
	}

	env, _ := testSetup(t, 7, false)
	// A query over every stream almost certainly spans regions with many
	// shards; assert routing still answers it correctly via fallback.
	qs := []query.Query{{ID: 1, Consumer: env.Topo.StubNodeIDs()[0], Streams: env.Stats.Streams()}}
	want, err := OptimizeBatch(env, qs, BatchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := OptimizeBatchSharded(env, qs, ShardedBatchOptions{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	circuitsEqual(t, 0, &got[0], &want[0])
}
