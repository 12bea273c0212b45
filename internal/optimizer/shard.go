package optimizer

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// ShardedBatchOptions configures OptimizeBatchSharded.
type ShardedBatchOptions struct {
	// Shards is the number of cost-space regions (rounded down to a
	// power of two; default 8). Each region gets its own plan cache and
	// worker pool; every pool reads the batch's one frozen snapshot.
	Shards int
	// WorkersPerShard is the worker-pool size per active shard (default:
	// GOMAXPROCS divided across the pools that have work, min 1).
	WorkersPerShard int
	// Caches carries per-shard plan caches across batches (see
	// NewShardedPlanCache). Nil means private caches for this batch; a
	// value with the wrong shard count is replaced by a private set.
	Caches *ShardedPlanCache
	// NoCache disables plan caching entirely.
	NoCache bool
}

// ShardStats reports how a sharded batch was routed.
type ShardStats struct {
	// Shards is the effective region count (after power-of-two rounding).
	Shards int
	// Routed[r] counts queries whose whole footprint (consumer plus
	// every source-stream producer) fell inside region r.
	Routed []int
	// Fallback counts cross-region queries handled by the global pool.
	Fallback int
}

// ShardedPlanCache is a set of per-region plan caches plus one for the
// cross-region fallback pool, reusable across batches the way a single
// PlanCache is for OptimizeBatch. Each cache is epoch-flushed
// independently against the snapshot it serves.
type ShardedPlanCache struct {
	shards []*PlanCache
	global *PlanCache
}

// NewShardedPlanCache builds caches for k regions (k as passed to
// ShardedBatchOptions.Shards, after its power-of-two rounding).
func NewShardedPlanCache(k int) *ShardedPlanCache {
	c := &ShardedPlanCache{shards: make([]*PlanCache, k), global: NewPlanCache()}
	for i := range c.shards {
		c.shards[i] = NewPlanCache()
	}
	return c
}

// Shards returns the region count the cache set was built for.
func (c *ShardedPlanCache) Shards() int { return len(c.shards) }

// RoundShards rounds k down to a power of two (default 8 for k <= 0) so
// region extraction is a bit shift off the Hilbert key — the effective
// shard count OptimizeBatchSharded uses for any requested k.
func RoundShards(k int) int {
	if k <= 0 {
		k = 8
	}
	for k&(k-1) != 0 {
		k &= k - 1
	}
	return k
}

// NodeRegions returns the Hilbert-prefix region of every node for a
// k-way split (k rounded down to a power of two, as RoundShards). This
// is the same assignment OptimizeBatchSharded routes queries by;
// exporting it lets the overlay key its data-plane shards to the
// optimizer's regions, so the traffic a region-local placement
// generates stays shard-local in the simulation too.
func NodeRegions(env *Env, k int) ([]int32, error) {
	return nodeRegions(env, RoundShards(k))
}

// nodeRegions assigns every node its home region: the top log2(k) bits
// of the Hilbert key of its cost-space point. Nearby points share long
// key prefixes, so regions are contiguous blobs in cost space — the
// locality that makes a region-local query's whole footprint land in
// one shard. The curve and bounds are derived from the environment the
// same way the DHT catalog's are (buildDHT), but locally, so routing
// works identically with or without a catalog and depends only on the
// snapshot's points — deterministic for a fixed environment.
func nodeRegions(env *Env, k int) ([]int32, error) {
	hbits := env.cfg.HilbertBits
	for uint(env.space.Dims())*hbits > 64 {
		hbits--
	}
	curve, err := hilbert.New(uint(env.space.Dims()), hbits)
	if err != nil {
		return nil, fmt.Errorf("optimizer: shard curve: %w", err)
	}
	all := make([]costspace.Point, 0, len(env.pts)+1)
	all = append(all, env.pts...)
	all = append(all, env.space.NewPoint(env.vec[0], []float64{1.5}))
	bounds, err := costspace.ComputeBounds(all, 0.05)
	if err != nil {
		return nil, err
	}
	shift := curve.KeyBits() - uint(bits.TrailingZeros(uint(k)))
	regions := make([]int32, len(env.pts))
	var cells []uint32
	for i, p := range env.pts {
		cells = bounds.QuantizeInto(cells, p, curve.Bits())
		regions[i] = int32(curve.MustEncodeInPlace(cells) >> shift)
	}
	return regions, nil
}

// OptimizeBatchSharded is OptimizeBatch decomposed over cost-space
// regions. The space is split into K Hilbert-prefix regions; each query
// whose footprint — consumer and every source-stream producer — falls in
// one region is routed to that region's shard, which owns a private
// plan cache and worker pool; cross-region queries fall back to a global
// pool with the same structure.
//
// The batch freezes the environment once and every pool reads that
// immutable snapshot, so a query optimizes to the bit-identical Result
// it would get from OptimizeBatch — regionality affects only which pool
// and cache serve it, never the answer
// (TestOptimizeBatchShardedMatchesGlobal). Results are returned in query
// order; the first error aborts all pools.
//
// The live Env must not be mutated while the batch runs, exactly as for
// OptimizeBatch.
func OptimizeBatchSharded(env *Env, queries []query.Query, opts ShardedBatchOptions) ([]Result, *ShardStats, error) {
	if env == nil {
		return nil, nil, fmt.Errorf("optimizer: OptimizeBatchSharded on nil env")
	}
	k := RoundShards(opts.Shards)
	stats := &ShardStats{Shards: k, Routed: make([]int, k)}
	results := make([]Result, len(queries))
	if len(queries) == 0 {
		return results, stats, nil
	}

	regions, err := nodeRegions(env, k)
	if err != nil {
		return nil, nil, err
	}
	regionOf := func(n topology.NodeID) (int32, bool) {
		if int(n) < 0 || int(n) >= len(regions) {
			return 0, false
		}
		return regions[n], true
	}

	// Partition the batch: home-shard index lists plus the fallback list.
	home := make([][]int, k)
	var fallback []int
	for i := range queries {
		q := &queries[i]
		r, ok := regionOf(q.Consumer)
		for _, sid := range q.Streams {
			if !ok {
				break
			}
			p, known := env.Stats.Producer(sid)
			if !known {
				ok = false
				break
			}
			pr, prOK := regionOf(p)
			if !prOK || pr != r {
				ok = false
			}
		}
		if ok {
			home[r] = append(home[r], i)
			stats.Routed[r]++
		} else {
			fallback = append(fallback, i)
			stats.Fallback++
		}
	}

	caches := opts.Caches
	if opts.NoCache {
		caches = nil
	} else if caches == nil || caches.Shards() != k {
		caches = NewShardedPlanCache(k)
	}

	pools := 0
	for _, idxs := range home {
		if len(idxs) > 0 {
			pools++
		}
	}
	if len(fallback) > 0 {
		pools++
	}
	workers := opts.WorkersPerShard
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / pools
		if workers < 1 {
			workers = 1
		}
	}

	b := &batchPools{snap: freezeForBatch(env), queries: queries, results: results, label: "sharded batch"}
	var wg sync.WaitGroup
	runPool := func(idxs []int, cache *PlanCache) {
		defer wg.Done()
		b.run(idxs, len(idxs), workers, cache)
	}

	for r := 0; r < k; r++ {
		if len(home[r]) == 0 {
			continue
		}
		wg.Add(1)
		var cache *PlanCache
		if caches != nil {
			cache = caches.shards[r]
		}
		go runPool(home[r], cache)
	}
	if len(fallback) > 0 {
		wg.Add(1)
		var cache *PlanCache
		if caches != nil {
			cache = caches.global
		}
		go runPool(fallback, cache)
	}
	wg.Wait()
	if b.firstErr != nil {
		return nil, nil, b.firstErr
	}
	return results, stats, nil
}
