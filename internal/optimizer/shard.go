package optimizer

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// ShardedBatchOptions configures OptimizeBatchSharded.
type ShardedBatchOptions struct {
	// Shards is the number of cost-space regions the batch's routing is
	// counted over (rounded down to a power of two; default 8).
	Shards int
	// WorkersPerShard is read by nothing: the batch runs on
	// OptimizeBatch's one GOMAXPROCS pool. bench/, frozen until the
	// ROADMAP's "Benchmark v2" direction, sets it.
	WorkersPerShard int
	// Caches carries the plan cache across batches (see
	// NewShardedPlanCache). Nil means a private cache for this batch.
	Caches *ShardedPlanCache
	// NoCache disables plan caching entirely.
	NoCache bool
}

// ShardStats reports how a sharded batch's queries fall into regions.
type ShardStats struct {
	// Shards is the effective region count (after power-of-two rounding).
	Shards int
	// Routed[r] counts queries whose whole footprint (consumer plus
	// every source-stream producer) lies inside region r.
	Routed []int
	// Fallback counts the queries whose footprint spans regions. They
	// run on the same pool and cache as every other query.
	Fallback int
}

// ShardedPlanCache carries OptimizeBatchSharded's plan cache across
// batches, the way a PlanCache does for OptimizeBatch. It wraps one
// PlanCache: a key names its consumer and its stream set, so it also
// names the query's region, and one cache is as exact as one per
// region (TestOptimizeBatchShardedMatchesGlobal).
type ShardedPlanCache struct{ cache *PlanCache }

// NewShardedPlanCache returns an empty cache, usable with any region
// count.
func NewShardedPlanCache(int) *ShardedPlanCache {
	return &ShardedPlanCache{cache: NewPlanCache()}
}

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
	m, err := newRegionMap(env, RoundShards(k))
	if err != nil {
		return nil, err
	}
	regions := make([]int32, len(env.pts))
	for i := range regions {
		regions[i] = m.at(topology.NodeID(i))
	}
	return regions, nil
}

// regionMap gives a node its home region: the top log2(k) bits of the
// Hilbert key of its cost-space point, encoded the first time the node
// is asked for, so batches encode only the nodes their queries name.
// Nearby points share long key prefixes, so regions are contiguous
// blobs in cost space — the locality that makes a region-local query's
// whole footprint land in one shard. The curve and bounds are the dht
// frame of the snapshot's points, built here rather than read off the
// catalog, so routing works identically with or without one and depends
// only on the points — deterministic for a fixed environment. A plan cache keeps one for its current snapshot, which
// the sharded batches of that snapshot share: concurrent ones that
// encode one node store the same value.
type regionMap struct {
	k      int
	pts    []costspace.Point
	curve  hilbert.Curve
	bounds costspace.Bounds
	shift  uint
	memo   []atomic.Int32 // a node's region plus one, 0 until asked
}

func newRegionMap(env *Env, k int) (*regionMap, error) {
	curve, bounds, err := dht.Frame(env.space, env.pts)
	if err != nil {
		return nil, fmt.Errorf("optimizer: shard frame: %w", err)
	}
	return &regionMap{k: k, pts: env.pts, curve: curve, bounds: bounds,
		shift: curve.KeyBits() - uint(bits.TrailingZeros(uint(k))), memo: make([]atomic.Int32, len(env.pts))}, nil
}

// at returns n's region, encoding it when it is not known yet.
func (m *regionMap) at(n topology.NodeID) int32 {
	r := m.memo[n].Load()
	if r == 0 {
		var cells [8]uint32
		r = int32(m.curve.MustEncodeInPlace(m.bounds.QuantizeInto(cells[:0], m.pts[n], m.curve.Bits()))>>m.shift) + 1
		m.memo[n].Store(r)
	}
	return r - 1
}

// OptimizeBatchSharded is OptimizeBatch plus a routing count. The space
// is split into K Hilbert-prefix regions, and ShardStats counts the
// queries whose footprint — consumer and every source-stream producer —
// falls in one region, and those that span regions. The answers are
// OptimizeBatch's, over one pool and one cache: regionality never
// changes a result (TestOptimizeBatchShardedMatchesGlobal). The region
// map is the cache's, like the snapshot: batches of one snapshot share
// it.
//
// The live Env must not be mutated while the batch runs, exactly as for
// OptimizeBatch.
func OptimizeBatchSharded(env *Env, queries []query.Query, opts ShardedBatchOptions) ([]Result, *ShardStats, error) {
	if env == nil {
		return nil, nil, fmt.Errorf("optimizer: OptimizeBatchSharded on nil env")
	}
	k := RoundShards(opts.Shards)
	cache := NewPlanCache() // a generation of this batch's own
	if opts.Caches != nil {
		cache = opts.Caches.cache
	}
	_, regions, err := cache.current(env, k)
	if err != nil {
		return nil, nil, err
	}
	stats := &ShardStats{Shards: k, Routed: make([]int, k)}
	for i := range queries {
		if r, ok := regionOf(env, regions, &queries[i]); ok {
			stats.Routed[r]++
		} else {
			stats.Fallback++
		}
	}
	results, err := OptimizeBatch(env, queries, BatchOptions{Cache: cache, NoCache: opts.NoCache})
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// regionOf returns the region that holds q's consumer and the producer
// of every stream it reads, or false when they span regions or name a
// node or stream the environment does not know.
func regionOf(env *Env, regions *regionMap, q *query.Query) (int32, bool) {
	in := func(n topology.NodeID) bool { return int(n) >= 0 && int(n) < len(env.pts) }
	if !in(q.Consumer) {
		return 0, false
	}
	r := regions.at(q.Consumer)
	for _, sid := range q.Streams {
		p, known := env.Stats.Producer(sid)
		if !known || !in(p) || regions.at(p) != r {
			return 0, false
		}
	}
	return r, true
}
