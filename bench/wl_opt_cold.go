package main

import (
	"math/rand"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// optCold is opt_cold_dht: the paper's own mechanism at paper-like
// scale. Every slice optimizes the same uncached 3/4/5-way joins
// against a frozen 2k-node environment with DHT mapping, on the
// benchmark's GOMAXPROCS-wide pool of sequential optimizers (a closed
// loop: a worker takes its next query when it has answered the last;
// see optimizeAll for why the pool is not OptimizeBatch).
type optCold struct {
	c       *ctx
	topo    *topology.Topology
	env     *optimizer.Env
	queries []query.Query
	results []optimizer.Result // the last slice's batch
}

func setupOptCold(c *ctx) (instance, error) {
	topo, err := c.genTopology(c.sz.net2k, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed * 3))
	stats, err := genStats(topo, c.sz.coldStreams, rng)
	if err != nil {
		return nil, err
	}
	// Equal thirds of 3-, 4- and 5-way joins, interleaved so any prefix
	// of the batch has the same mix.
	third := c.sz.coldBatch / 3
	var byWidth [3][]query.Query
	for i, w := range []int{3, 4, 5} {
		byWidth[i], err = genQueries(topo, stats, third, w, w, 0.2, rng, 1)
		if err != nil {
			return nil, err
		}
	}
	queries := make([]query.Query, 0, 3*third)
	for i := 0; i < third; i++ {
		for _, qs := range byWidth {
			q := qs[i]
			q.ID = query.QueryID(len(queries) + 1)
			queries = append(queries, q)
		}
	}
	env, err := c.envNet2k(topo, stats)
	if err != nil {
		return nil, err
	}
	w := &optCold{c: c, topo: topo, env: env, queries: queries}
	// The cold pass: builds the snapshot's index, warms the pools.
	end := c.span("optimizer.batch_cold")
	w.results = c.optimizeAll(env, queries)
	end()
	return w, nil
}

func (w *optCold) slice(int) (float64, error) {
	end := w.c.span("optimizer.batch")
	defer end()
	w.results = w.c.optimizeAll(w.env, w.queries)
	return float64(len(w.queries)), nil
}

func (w *optCold) rungs() error {
	c := w.c
	rungLatency(c, w.topo)
	rungOracle(c, w.env)
	rungDHT(c, w.env)
	rungEnumerate(c, w.env.Stats, w.queries)
	rungStaged(c, w.env, w.queries)
	rungSequential(c, w.env, w.queries, c.sz.latencySamples)
	rungFreeze(c, w.env)
	return nil
}

func (w *optCold) finish() error {
	c, rep := w.c, w.c.rep
	checkAgainstSequential(rep, integrated(w.env.Freeze()), w.queries, w.results, c.sz.checkSample)
	usageMetrics(c, w.env, circuitsOf(w.results, c.sz.usageSample))
	if c.tracing() {
		resultStats(rep, w.results)
		setupLayerMetrics(c, w.env)
	}
	return nil
}

func (w *optCold) close() {}
