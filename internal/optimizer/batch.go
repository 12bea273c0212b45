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
	// it still reuse plans) unless NoCache is set.
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
// Queries whose (consumer, canonical stream set, cost-space Hilbert cell)
// key hits the plan cache skip plan enumeration: the previously winning
// logical plan is re-placed under the snapshot's conditions, which yields
// a circuit identical to the full optimization whenever the key matches
// exactly (the full path is deterministic for a fixed snapshot). Cache
// hits report PlansConsidered == 1 and FromCache == true; their Circuit
// and EstimatedUsage match the sequential Optimize result.
//
// Results are returned in query order. The first optimization error
// aborts the batch and is returned; remaining work is skipped.
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
	if cache == nil && !opts.NoCache {
		cache = NewPlanCache()
	}
	if opts.NoCache {
		cache = nil
	}

	b := &batchPools{snap: freezeForBatch(env), queries: queries, results: results, label: "batch"}
	b.run(nil, len(queries), workers, cache)
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	return results, nil
}

// freezeForBatch returns the one snapshot every pool of a batch reads,
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

// batchPools is what the worker pools of one batch share: the frozen
// snapshot, the queries, the result slots, and the first error, which
// stops every pool.
type batchPools struct {
	snap    *Env
	queries []query.Query
	results []Result
	label   string // names the entry point in error text

	stop     atomic.Bool
	errOnce  sync.Once
	firstErr error
}

// run optimizes n queries — those at idxs, or all of them in order when
// idxs is nil — on the batch's snapshot with up to workers goroutines
// and returns when they are done.
func (b *batchPools) run(idxs []int, n, workers int, cache *PlanCache) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := NewIntegrated(b.snap)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || b.stop.Load() {
					return
				}
				if idxs != nil {
					i = idxs[i]
				}
				res, err := optimizeOne(b.snap, opt, cache, b.queries[i])
				if err != nil {
					err = fmt.Errorf("optimizer: %s query %d (index %d): %w", b.label, b.queries[i].ID, i, err)
					b.errOnce.Do(func() { b.firstErr = err })
					b.stop.Store(true)
					return
				}
				b.results[i] = *res
			}
		}()
	}
	wg.Wait()
}

// optimizeOne answers one batch query: from the plan cache when the key
// hits, with the full integrated optimization otherwise (feeding the
// cache with the winner). The key is built in the worker's scratch.
func optimizeOne(snap *Env, opt *Integrated, cache *PlanCache, q query.Query) (*Result, error) {
	if cache == nil {
		return opt.Optimize(q)
	}
	key := &opt.state().key
	cache.keyInto(key, snap.Snapshot, q)
	if p := cache.get(key); p != nil {
		return placeCachedPlan(opt, q, p)
	}
	res, err := opt.Optimize(q)
	if err != nil {
		return nil, err
	}
	cache.Put(key.key(), res.Circuit.Plan)
	return res, nil
}

// placeCachedPlan skips enumeration and runs only the placement pipeline
// for a plan that previously won the full optimization of an equivalent
// query under the same environment epoch. The plan is still re-rated
// against current statistics and re-placed against the snapshot, so the
// circuit always reflects the state the batch was frozen over. It runs
// on the calling worker's optimizer so the builder's scratch problem
// graph is reused across the whole batch.
func placeCachedPlan(opt *Integrated, q query.Query, p *query.PlanNode) (*Result, error) {
	env := opt.Env
	_, placer, mapper, model := opt.components()
	if err := p.ComputeRates(env.Stats); err != nil {
		return nil, err
	}
	circuit, stats, err := buildPlaceMap(opt.builder(), q, p, placer, mapper)
	if err != nil {
		return nil, err
	}
	usage := circuit.NetworkUsage(model)
	if IsUncosted(usage) {
		return nil, fmt.Errorf("optimizer: cached plan for query %d produced an uncosted circuit", q.ID)
	}
	return &Result{
		Circuit:            circuit,
		PlansConsidered:    1,
		CircuitsConsidered: 1,
		EstimatedUsage:     usage,
		MapStats:           stats,
		FromCache:          true,
	}, nil
}
