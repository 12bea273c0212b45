package optimizer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
)

// BatchOptions configures OptimizeBatch.
type BatchOptions struct {
	// Workers is the number of concurrent optimizer goroutines (default
	// GOMAXPROCS, capped at the number of queries).
	Workers int
	// Cache is the plan cache shared by the batch's workers. Nil means a
	// private cache is created for the batch (so repeated queries within
	// it still reuse plans) unless NoCache is set. A result's
	// Circuit.Plan may be the tree this cache stores, shared with every
	// later hit: callers must not write it (copy first with Clone or
	// ShallowClone). Hits and misses alike have their circuits carved
	// from their worker's blocks, each in a disjoint, capacity-clipped
	// region (see Result.Circuit).
	Cache *PlanCache
	// NoCache disables plan caching entirely: every query runs the full
	// integrated optimization.
	NoCache bool
}

// OptimizeBatch runs the integrated optimizer over many queries
// concurrently. All workers share one frozen snapshot of the environment
// (Env.Freeze), so the whole batch is optimized against a single
// consistent view of coordinates, loads, and the catalog with no
// locking on the read path, and the live Env remains free to mutate
// afterwards without invalidating anything the batch computed.
//
// Queries whose (consumer, canonical stream set) key hits the plan cache
// skip plan enumeration: the previously winning logical plan is re-placed
// under the snapshot's conditions, which yields a circuit identical to
// the full optimization whenever the key matches exactly (the full path
// is deterministic for a fixed snapshot). Cache hits report
// PlansConsidered == 1 and FromCache == true; their Circuit and
// EstimatedUsage match the sequential Optimize result.
//
// Results are returned in query order, each written once, by its
// worker, into the returned slice. The first optimization error aborts
// the batch and is returned; remaining work is skipped.
//
// The live Env must not be mutated (Deploy, Cancel, SetBackgroundLoad,
// committed migrations, SetCoordinates, statistics-catalog changes) while
// OptimizeBatch runs: the snapshot copies the coordinate arrays but
// shares the DHT catalog and statistics catalog with the live
// environment.
func OptimizeBatch(env *Env, queries []query.Query, opts BatchOptions) ([]Result, error) {
	if env == nil {
		return nil, fmt.Errorf("optimizer: OptimizeBatch on nil env")
	}
	results := make([]Result, len(queries))
	if len(queries) == 0 {
		return results, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if opts.NoCache {
		cache = nil
	} else if cache == nil {
		cache = NewPlanCache()
	}

	snap := freezeForBatch(env)
	if cache != nil {
		cache.syncEpoch(snap.epoch)
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(workers, len(queries)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := NewIntegrated(snap)
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				if _, err := optimizeOne(opt, cache, queries[i], &results[i]); err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("optimizer: batch query %d (index %d): %w", queries[i].ID, i, err)
					})
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// freezeForBatch returns the one snapshot every worker of a batch reads,
// with its k-NN index built up front only if the batch's mapper reads
// points from the snapshot, so the workers share one immutable index
// lock-free. The live env is left as it was.
func freezeForBatch(env *Env) *Env {
	snap := env.Freeze()
	if _, ok := mapperOn(nil, snap.Catalog(), snap).(placement.SourceMapper); ok {
		snap.CostIndex()
	}
	return snap
}

// optimizeOne answers one batch query into dst (nil: carved from the
// worker's blocks): from the plan cache when the key hits, with the full
// integrated optimization otherwise (feeding the cache with the winner).
// The key is built in the worker's scratch; the one a miss stores is a
// copy carved from the worker's byte block, like the plan's signature.
func optimizeOne(opt *Integrated, cache *PlanCache, q query.Query, dst *Result) (*Result, error) {
	if cache == nil {
		return opt.optimizeInto(dst, q)
	}
	key := &opt.state().key
	key.set(q)
	if p := cache.get(key); p != nil {
		return placeCachedPlan(opt, q, p, dst)
	}
	res, err := opt.optimizeInto(dst, q)
	if err != nil {
		return nil, err
	}
	cache.Put(PlanCacheKey{key.consumer, query.Carve(&opt.builder().bytes, key.streams)}, res.Circuit.Plan)
	return res, nil
}

// placeCachedPlan skips enumeration and runs only the placement pipeline
// for a plan that previously won the full optimization of an equivalent
// query under the same environment epoch. The plan is the cache's,
// rated and signed when it left the optimizer and read-only since, so
// the circuit shares it and it is not re-rated: a statistics change
// bumps the epoch, which flushes the cache. The circuit is placed
// against the snapshot, so it always reflects the state the batch was
// frozen over. It runs on the calling worker's optimizer: the circuit
// is placed on its Builder's scratch, and the result is a copy carved
// from that Builder's blocks, over the cached plan itself, written to
// dst (nil: carved too).
func placeCachedPlan(opt *Integrated, q query.Query, p *query.PlanNode, dst *Result) (*Result, error) {
	_, placer, mapper, model := opt.components()
	b := opt.builder()
	c := &b.cand[0]
	stats, err := b.buildPlaceMapInto(c, q, p, placer, mapper)
	if err != nil {
		return nil, err
	}
	usage := c.NetworkUsage(model)
	if IsUncosted(usage) {
		return nil, fmt.Errorf("optimizer: cached plan for query %d produced an uncosted circuit", q.ID)
	}
	return b.owned(dst, Result{
		PlansConsidered:    1,
		CircuitsConsidered: 1,
		EstimatedUsage:     usage,
		MapStats:           stats,
		FromCache:          true,
	}, c, false), nil
}
