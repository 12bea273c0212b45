package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
)

// optChurn is opt_churn: the same layers as opt_warm_sharded used the
// other way — written. Every round drifts node loads (each change bumps
// the epoch, patches the k-NN index and republishes the node in the
// DHT); every few rounds the gossip ticker advances and the whole
// coordinate set is re-synced (index dropped, every node republished);
// then one small sharded batch runs on the persistent caches, which the
// epoch bump has just flushed. A gain for warm reads that is paid for
// at invalidation time shows here.
type optChurn struct {
	c       *ctx
	net     *net16k
	queries []query.Query
	caches  *optimizer.ShardedPlanCache
	drift   *rand.Rand
	round   int
	results []optimizer.Result
}

// maxChurnRounds is how many rounds a run of opt_churn may make.
const maxChurnRounds = 150

func setupOptChurn(c *ctx) (instance, error) {
	net, err := c.buildNet16k(c.sz.net16kStreams, true)
	if err != nil {
		return nil, err
	}
	// After about 47 coordinate syncs of this network (round 188, on
	// every seed) the default DHT walk starts to find nothing for some
	// targets and the sharded batch, which takes no mapper, fails with
	// them; up to 150 rounds no batch of 24 seeds failed.
	if rounds := c.sz.churnSyncEvery + c.slices*c.sz.churnRoundsPerSlice; rounds > maxChurnRounds {
		net.close()
		return nil, fmt.Errorf("opt_churn: %d slices make %d rounds, at most %d stay clear of DHT walk misses", c.slices, rounds, maxChurnRounds)
	}
	queries, err := genQueries(net.topo, net.stats, c.sz.churnBatch, 1, 2, 0, rand.New(rand.NewSource(c.seed*7)), 1)
	if err != nil {
		net.close()
		return nil, err
	}
	w := &optChurn{c: c, net: net, queries: queries,
		caches: optimizer.NewShardedPlanCache(optimizer.RoundShards(c.sz.shards)),
		drift:  rand.New(rand.NewSource(c.seed * 11))}
	// Warm-up: the cold batch, then one full cycle of rounds, coordinate
	// sync included, so the first timed slice already runs on flushed
	// caches and a rebuilt index like every later one.
	end := c.span("optimizer.batch_cold")
	err = w.batch()
	end()
	for r := 0; err == nil && r < c.sz.churnSyncEvery; r++ {
		if err = w.mutate(); err == nil {
			err = w.batch()
		}
	}
	if err != nil {
		net.close()
		return nil, err
	}
	return w, nil
}

func (w *optChurn) batch() (err error) {
	w.results, _, err = w.c.shardedBatch(w.net.env, w.queries, w.caches)
	return err
}

// mutate is one round's writes to the environment.
func (w *optChurn) mutate() error {
	c := w.c
	w.round++
	end := c.span("optimizer.mutate")
	defer end()
	c.drift(w.net.env, c.sz.churnDrift, w.drift)
	if w.round%c.sz.churnSyncEvery != 0 {
		return nil
	}
	endTick := c.span("vivaldi.ticker_round")
	w.net.clk.Sleep(c.sz.tickerInterval)
	endTick()
	_, err := w.net.env.SetCoordinates(w.net.ticker.Embedding().Coords)
	c.rep.ops(1)
	if err != nil {
		c.rep.fail("SetCoordinates: %v", err)
	}
	return err
}

func (w *optChurn) slice(int) (float64, error) {
	for r := 0; r < w.c.sz.churnRoundsPerSlice; r++ {
		if err := w.mutate(); err != nil {
			return 0, err
		}
		if err := w.batch(); err != nil {
			return 0, err
		}
	}
	return float64(len(w.queries) * w.c.sz.churnRoundsPerSlice), nil
}

func (w *optChurn) rungs() error {
	c := w.c
	rungLatency(c, w.net.topo)
	rungOracle(c, w.net.env)
	rungDHT(c, w.net.env)
	rungStaged(c, w.net.env, w.queries)
	rungFreeze(c, w.net.env)

	// One more full sync, then the first oracle mapping after it: the
	// cost of rebuilding the k-NN index the sync dropped.
	w.net.clk.Sleep(c.sz.tickerInterval)
	if _, err := w.net.env.SetCoordinates(w.net.ticker.Embedding().Coords); err != nil {
		return err
	}
	end := c.span("costindex.rebuild_rung")
	start := time.Now()
	_, _, err := placement.OracleMapper{Source: w.net.env}.MapCoord(0, w.net.env.VecCoord(0), nil)
	d := time.Since(start)
	end()
	if err != nil {
		return err
	}
	c.rep.set("costindex.rebuild_ms", float64(d.Microseconds())/1e3)
	return nil
}

func (w *optChurn) finish() error {
	c, rep := w.c, w.c.rep
	checkAgainstSequential(rep, optimizer.NewIntegrated(w.net.env.Freeze()), w.queries, w.results, c.sz.checkSample)
	usageMetrics(c, w.net.env, circuitsOf(w.results, c.sz.usageSample))
	if c.tracing() {
		resultStats(rep, w.results)
		rep.set("optimizer.mutate_ms_per_round", 1e3*mean(c.rec.durations("optimizer.mutate")))
		setupLayerMetrics(c, w.net.env)
		if ticks := c.rec.durations("vivaldi.ticker_round"); len(ticks) > 0 {
			rep.set("vivaldi.ticker_round_ms", 1e3*mean(ticks))
		}
	}
	return nil
}

func (w *optChurn) close() { w.net.close() }
