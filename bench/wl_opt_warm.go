package main

import (
	"math/rand"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
)

// optWarm is opt_warm_sharded: the read path of the optimizer's state.
// The same 20k one- and two-stream queries are optimized again and
// again through 16 cost-space shards whose plan caches persist, against
// an environment nothing mutates, with oracle (k-NN) mapping.
type optWarm struct {
	c       *ctx
	net     *net16k
	queries []query.Query
	caches  *optimizer.ShardedPlanCache
	results []optimizer.Result
	stats   *optimizer.ShardStats
}

func setupOptWarm(c *ctx) (instance, error) {
	net, err := c.buildNet16k(c.sz.net16kStreams, false)
	if err != nil {
		return nil, err
	}
	net.ticker.Stop()
	queries, err := genQueries(net.topo, net.stats, c.sz.warmQueries, 1, 2, 0, rand.New(rand.NewSource(c.seed*7)), 1)
	if err != nil {
		net.close()
		return nil, err
	}
	w := &optWarm{c: c, net: net, queries: queries,
		caches: optimizer.NewShardedPlanCache(optimizer.RoundShards(c.sz.shards))}
	// The cold batch: every query misses, fills the caches.
	end := c.span("optimizer.batch_cold")
	err = w.batch()
	end()
	if err != nil {
		net.close()
		return nil, err
	}
	return w, nil
}

func (w *optWarm) batch() (err error) {
	w.results, w.stats, err = w.c.shardedBatch(w.net.env, w.queries, w.caches)
	return err
}

func (w *optWarm) slice(int) (float64, error) {
	for b := 0; b < w.c.sz.warmBatchesPerSlice; b++ {
		if err := w.batch(); err != nil {
			return 0, err
		}
	}
	return float64(len(w.queries) * w.c.sz.warmBatchesPerSlice), nil
}

func (w *optWarm) rungs() error {
	c := w.c
	rungLatency(c, w.net.topo)
	rungOracle(c, w.net.env)
	rungEnumerate(c, w.net.stats, w.queries)
	rungStaged(c, w.net.env, w.queries)
	rungSequential(c, w.net.env, w.queries, c.sz.latencySamples)
	rungFreeze(c, w.net.env)
	return nil
}

func (w *optWarm) finish() error {
	c, rep := w.c, w.c.rep
	checkAgainstSequential(rep, optimizer.NewIntegrated(w.net.env.Freeze()), w.queries, w.results, c.sz.checkSample)
	usageMetrics(c, w.net.env, circuitsOf(w.results, c.sz.usageSample))
	if c.tracing() {
		resultStats(rep, w.results)
		rep.set("optimizer.shard_fallback_ratio", ratio(float64(w.stats.Fallback), float64(len(w.queries))))
		setupLayerMetrics(c, w.net.env)
	}
	return nil
}

func (w *optWarm) close() { w.net.close() }
