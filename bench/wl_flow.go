package main

import (
	"math/rand"
)

// flowSteady is flow_steady: the tuple-dominated data plane. 640
// circuits execute on the 16k-node overlay on the single event queue;
// no heartbeats, no faults, no adaptation, the gossip ticker stopped.
// It predicts no loss and no repair.
type flowSteady struct {
	c  *ctx
	dp *dataPlane
}

func setupFlowSteady(c *ctx) (instance, error) {
	net, err := c.buildNet16k(c.sz.net16kStreams, false)
	if err != nil {
		return nil, err
	}
	net.ticker.Stop()
	queries, err := genQueries(net.topo, net.stats, c.sz.flowCircuits, 2, 4, 0.2, rand.New(rand.NewSource(c.seed*7)), 1)
	if err != nil {
		net.close()
		return nil, err
	}
	dp, err := c.buildDataPlane(net, queries, 1)
	if err != nil {
		net.close()
		return nil, err
	}
	// Warm-up: join windows fill, the wheel reaches its steady depth.
	dp.advance(simDuration(c.sz.flowWarmSimS))
	return &flowSteady{c: c, dp: dp}, nil
}

func (w *flowSteady) slice(int) (float64, error) {
	return w.dp.advance(simDuration(w.c.sz.flowSliceSim)), nil
}

func (w *flowSteady) finish() error {
	c, rep, dp := w.c, w.c.rep, w.dp
	circuits := dp.circuits()
	usageMetrics(c, dp.net.env, circuits)
	dp.measure()
	rep.check(dp.lost() == 0, "flow_steady lost %g tuples with no faults injected", dp.lost())
	dp.quiesce()
	if c.tracing() {
		setupLayerMetrics(c, dp.net.env)
	}
	return nil
}

func (w *flowSteady) rungs() error {
	c, dp := w.c, w.dp
	rungLatency(c, dp.net.topo)
	rungOracle(c, dp.net.env)
	rungKernel(c, "simtime.kernel_events_per_s", dp.pendingPeak, nil, 0, 0)
	return nil
}

func (w *flowSteady) close() { w.dp.close() }
