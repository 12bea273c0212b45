package optimizer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// BatchOptions configures OptimizeBatch.
type BatchOptions struct {
	// Workers is the number of concurrent optimizer goroutines (default
	// GOMAXPROCS, capped at the number of queries).
	Workers int
	// Cache is the plan cache the batch's workers share; nil means a
	// private one for the batch. Entries outlive load changes, which
	// revalidate them (see PlanCache). A hit's circuit shares its plan,
	// services and links with the entry and every other hit of its key:
	// callers must not write them (see Result.Circuit).
	Cache *PlanCache
	// NoCache disables plan lookups and stores: every query runs the
	// full integrated optimization (on Cache's snapshot, if one is set).
	NoCache bool
}

// OptimizeBatch runs the integrated optimizer over many queries
// concurrently. All workers share one frozen snapshot of the environment
// (Env.Freeze), so the whole batch is optimized against a single
// consistent view of coordinates, loads, and the catalog with no
// locking on the read path, and the live Env remains free to mutate
// afterwards without invalidating anything the batch computed. The
// snapshot is the plan cache's: later batches that see the same loads
// and catalog reuse it, and its k-NN index, instead of freezing again.
//
// A query whose (consumer, canonical stream set) key hits the plan cache
// gets the circuit the key's miss placed, with no enumeration and no
// placement: the full path is deterministic for a fixed snapshot, so
// the hit's Circuit, EstimatedUsage and MapStats match the sequential
// Optimize result; an entry from before a load change is revalidated
// first (see PlanCache). Known defect (ROADMAP item 24): that holds only
// for queries listing their streams in canonical order, since the key is
// canonical and the search is not. Hits report PlansConsidered and
// CircuitsConsidered 1 and FromCache true.
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
	if cache == nil {
		cache = NewPlanCache()
	}
	snap, _, _ := cache.current(env, 0)
	if opts.NoCache {
		cache = nil
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

// freezeForBatch returns the snapshot a plan cache's batches share until
// env's loads or catalog change, indexed up front only if their mapper
// reads its points, so the workers share one immutable index lock-free.
// The live env is left as it was.
func freezeForBatch(env *Env) *Env {
	snap := env.Freeze()
	if _, ok := mapperOn(nil, snap.Catalog(), snap).(placement.SourceMapper); ok {
		snap.CostIndex()
	}
	return snap
}

// optimizeOne answers one batch query into dst (nil: carved from the
// worker's blocks): from the plan cache when the key hits, with the full
// integrated optimization otherwise (feeding the cache with the result).
// A hit costs one circuit header carved from the worker's block, and a
// revalidated one stores nothing. The key is built in the worker's
// scratch; a new entry's key is a copy carved from the worker's byte
// block, like the plan's signature.
func optimizeOne(opt *Integrated, cache *PlanCache, q query.Query, dst *Result) (*Result, error) {
	if cache == nil {
		return opt.optimizeInto(dst, q, nil, nil)
	}
	key, b := &opt.state().key, opt.builder()
	key.set(q)
	m, found, valid := cache.get(key)
	if found && !valid && m.plans == 1 && opt.revalidate(&m, q.Consumer) {
		cache.put(key, &b.bytes, m)
		valid = true
	}
	if !valid {
		cache.miss.Add(1)
	} else {
		cache.hits.Add(1)
		c := &take(&b.circuits, 1)[0]
		*c = Circuit{Query: q, Plan: m.plan, Services: m.services, Links: m.links,
			rootIdx: int(m.root), consumerIdx: int(m.consumer)}
		if dst == nil {
			dst = &take(&b.results, 1)[0]
		}
		*dst = Result{Circuit: c, PlansConsidered: 1, CircuitsConsidered: 1,
			EstimatedUsage: m.usage, MapStats: m.stats, FromCache: true}
		return dst, nil
	}
	res, err := opt.optimizeInto(dst, q, nil, nil)
	if err != nil {
		return nil, err
	}
	c := res.Circuit
	cache.put(key, &b.bytes, memo{c.Plan, c.Services, c.Links,
		int32(c.rootIdx), int32(c.consumerIdx), int32(res.PlansConsidered), res.EstimatedUsage, res.MapStats, 0})
	return res, nil
}

// revalidate reports whether m, stored for consumer in an earlier
// snapshot from a single plan, is what a miss would place now (see
// PlanCache); statistics sum in MapPhysical's order. Without a fault
// oracle a DHT walk starts at its key's owner and keeps the stored hops.
func (o *Integrated) revalidate(m *memo, consumer topology.NodeID) bool {
	_, _, mapper, _ := o.components()
	remap := func(v vivaldi.Coord) (topology.NodeID, placement.MapStats, error) {
		return mapper.MapCoord(consumer, v, nil)
	}
	dm, fast := mapper.(placement.DHTMapper)
	if fast = fast && !dm.Catalog.Ring().Faulty(); fast {
		remap = dm.Remap
	}
	var agg placement.MapStats
	for _, s := range m.services {
		if !s.Pinned && s.Plan != nil {
			node, st, err := remap(s.Virtual)
			if err != nil || node != s.Node {
				return false
			}
			agg.Add(st)
		}
	}
	if fast {
		agg.LookupHops = m.stats.LookupHops
	}
	return agg == m.stats
}
