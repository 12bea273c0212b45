package main

import (
	"fmt"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/stream"
)

// dataPlane is a set of optimized circuits deployed and executing on
// the 16k-node overlay, assembled from the layers' public functions the
// way exp.X16 and exp.X17 assemble theirs.
type dataPlane struct {
	c      *ctx
	net    *net16k
	onet   *overlay.Network
	engine *stream.Engine
	dep    *optimizer.Deployment
	runs   []*stream.Running

	// Lane map of the sharded clock (nil on the single queue).
	laneOf    []int32
	shards    int
	lookahead time.Duration

	// Host seconds spent advancing the clock, and what the overlay sent
	// meanwhile; the traced part separately, for allocs per message.
	advanceHost time.Duration
	simElapsed  time.Duration
	tracedSent  float64
	pendingPeak int
}

// buildDataPlane optimizes the queries on the benchmark's pool (with
// DHT mapping, the wide walk: see optimizeAll), shards the clock when
// asked to, and deploys every circuit on the control plane and the
// engine.
func (c *ctx) buildDataPlane(net *net16k, queries []query.Query, dataShards int) (*dataPlane, error) {
	end := c.span("optimizer.batch_cold")
	results := c.optimizeAll(net.env, queries)
	end()
	for i := range results {
		if results[i].Circuit == nil {
			return nil, fmt.Errorf("query %d has no circuit to deploy", queries[i].ID)
		}
	}
	var err error
	dp := &dataPlane{c: c, net: net}
	netCfg := overlay.Config{TimeScale: time.Millisecond, InboxSize: 8192, Clock: net.clk}
	if dataShards > 1 {
		dp.laneOf, dp.shards, dp.lookahead, err = dataPlaneShards(net.topo, net.env, dataShards, netCfg.TimeScale)
		if err != nil {
			return nil, err
		}
		net.clk.ShardLanes(dp.laneOf, dp.shards, dp.lookahead)
		netCfg.DataShards, netCfg.ShardOf = dp.shards, dp.laneOf
	}
	end = c.span("overlay.new_network")
	dp.onet = overlay.NewNetwork(net.topo, netCfg)
	dp.onet.Start()
	end()
	ecfg := stream.DefaultEngineConfig()
	ecfg.Seed = c.seed
	ecfg.TupleSizeKB = 4
	ecfg.Keyspace = 250
	dp.engine = stream.NewEngine(dp.onet, net.topo, ecfg)
	dp.dep = optimizer.NewDeployment(net.env, nil)
	for i := range results {
		circuit := results[i].Circuit
		end := c.span("optimizer.deploy")
		err := dp.dep.Deploy(circuit)
		end()
		c.rep.ops(1)
		if err != nil {
			c.rep.fail("deploy query %d: %v", circuit.Query.ID, err)
			return nil, err
		}
		end = c.span("stream.engine_deploy")
		run, err := dp.engine.Deploy(circuit)
		end()
		c.rep.ops(1)
		if err != nil {
			c.rep.fail("engine deploy query %d: %v", circuit.Query.ID, err)
			return nil, err
		}
		dp.runs = append(dp.runs, run)
	}
	return dp, nil
}

// advance sleeps the driving goroutine through d of simulated time; the
// scheduler executes everything due meanwhile. It returns how many
// messages the overlay sent.
func (dp *dataPlane) advance(d time.Duration) float64 {
	sent := dp.onet.Metrics.Counter("msgs.sent")
	before := sent.Value()
	end := dp.c.span("simtime.advance")
	start := time.Now()
	dp.net.clk.Sleep(d)
	dp.advanceHost += time.Since(start)
	end()
	delta := sent.Value() - before
	dp.simElapsed += d
	if dp.c.tracing() {
		dp.tracedSent += delta
	}
	if p := dp.net.clk.PendingEvents(); p > dp.pendingPeak {
		dp.pendingPeak = p
	}
	return delta
}

// circuits returns the deployment's current circuits in query order.
func (dp *dataPlane) circuits() []*optimizer.Circuit {
	out := make([]*optimizer.Circuit, 0, len(dp.runs))
	for _, run := range dp.runs {
		if c, ok := dp.dep.Circuit(run.Circuit.Query.ID); ok {
			out = append(out, c)
		}
	}
	return out
}

func (dp *dataPlane) counter(name string) float64 { return dp.onet.Metrics.Counter(name).Value() }

// lost sums the counters a tuple can be lost to.
func (dp *dataPlane) lost() float64 {
	return dp.counter("faults.dropped") + dp.counter("msgs.down_dropped") + dp.counter("msgs.dropped") +
		dp.counter("msgs.unrouted") + dp.counter("repair.buffered_lost")
}

// measure takes the simulated statistics of the executing circuits. It
// runs before quiesce, while every circuit still flows.
func (dp *dataPlane) measure() {
	rep := dp.c.rep
	truth := optimizer.TrueLatency{Topo: dp.net.topo}
	var latency, usage, predictedUsage, outRate, predictedRate float64
	var sinks, flowing int
	for _, run := range dp.runs {
		m := run.Measure()
		sinks += m.TuplesOut
		if m.TuplesOut > 0 {
			latency += m.MeanLatencyMs
			flowing++
		}
		usage += m.NetworkUsage
		outRate += m.OutRateKBs
		if c, ok := dp.dep.Circuit(run.Circuit.Query.ID); ok {
			predictedUsage += c.NetworkUsage(truth)
			predictedRate += c.Root().OutRate
		}
	}
	sent := dp.counter("msgs.sent")
	rep.set("stream.tuple_latency_sim_ms", ratio(latency, float64(flowing)))
	rep.set("stream.tuple_loss_ratio", ratio(dp.lost(), sent))
	rep.set("stream.measured_usage_ratio", ratio(usage, predictedUsage))
	rep.set("stream.out_rate_ratio", ratio(outRate, predictedRate))
	rep.set("stream.tuples_per_s", ratio(float64(sinks), dp.advanceHost.Seconds()))
	rep.set("overlay.msgs_per_s", ratio(sent, dp.advanceHost.Seconds()))
	rep.set("overlay.allocs_per_msg", ratio(dp.c.mallocs, dp.tracedSent))
	drops := dp.lost() + dp.counter("faults.hb_dropped") + dp.counter("hb.down_dropped") + dp.counter("hb.postmortem_dropped")
	rep.set("overlay.drop_ratio", ratio(drops, sent))
	rep.set("simtime.pending_peak", float64(dp.pendingPeak))
	rep.set("simtime.sim_s_per_s", ratio(dp.simElapsed.Seconds(), dp.advanceHost.Seconds()))
	rep.check(sinks > 0, "no tuple reached any consumer")
	for _, name := range []string{"stream.tuple_latency_sim_ms", "stream.tuple_loss_ratio", "stream.measured_usage_ratio", "stream.out_rate_ratio"} {
		rep.fp.float(name, rep.values[name])
	}
	rep.fp.float("sinks", float64(sinks))
	rep.fp.float("sent", sent)
}

// quiesce halts the producers, lets in-flight tuples drain and closes
// the books: with every periodic source stopped, nothing may be left in
// the event queues, so every message sent was either handled or
// counted as lost.
func (dp *dataPlane) quiesce(stop ...func()) {
	for _, run := range dp.runs {
		run.HaltProducers()
	}
	dp.net.clk.Sleep(2 * time.Second)
	for _, s := range stop {
		s()
	}
	dp.net.ticker.Stop()
	dp.net.clk.Sleep(time.Second)
	pending := dp.net.clk.PendingEvents()
	dp.c.rep.check(pending == 0, "tuple conservation: %d events still pending after quiesce", pending)
}

func (dp *dataPlane) close() {
	dp.engine.Close()
	dp.onet.Stop()
	dp.net.close()
}

func simDuration(simSeconds float64) time.Duration {
	return time.Duration(simSeconds * float64(time.Second))
}
