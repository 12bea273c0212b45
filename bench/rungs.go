package main

import (
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// The rungs run one layer alone, from outside, on the workload's own
// inputs. They exist so that a change in an end-to-end number can be
// walked down to the layer that moved; they run only in the traced
// pass, after the timed region.

// rungSink keeps the rungs' results alive so the compiler cannot drop
// the loops that compute them.
var rungSink float64

// rungLatency times Topology.Latency over seeded node pairs.
func rungLatency(c *ctx, topo *topology.Topology) {
	rng := rand.New(rand.NewSource(c.seed * 17))
	n := topo.NumNodes()
	pairs := make([][2]topology.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))}
	}
	end := c.span("topology.latency_rung")
	start := time.Now()
	var sink float64
	for i := 0; i < c.sz.rungLatencyPairs; i++ {
		p := pairs[i&4095]
		sink += topo.Latency(p[0], p[1])
	}
	d := time.Since(start)
	end()
	rungSink = sink
	c.rep.set("topology.latency_ns", float64(d.Nanoseconds())/float64(c.sz.rungLatencyPairs))
}

// mapTargets draws seeded mapping targets shaped like the ones virtual
// placement produces: the midpoint of two nodes' latency coordinates,
// looked up from the first of them.
func mapTargets(c *ctx, env *optimizer.Env, n int) ([]topology.NodeID, []vivaldi.Coord) {
	rng := rand.New(rand.NewSource(c.seed * 19))
	nodes := env.Topo.NumNodes()
	starts := make([]topology.NodeID, n)
	vecs := make([]vivaldi.Coord, n)
	for i := range vecs {
		a, b := topology.NodeID(rng.Intn(nodes)), topology.NodeID(rng.Intn(nodes))
		starts[i] = a
		vecs[i] = env.VecCoord(a).Add(env.VecCoord(b)).Scale(0.5)
	}
	return starts, vecs
}

// rungMapper times one mapper over the seeded targets and returns the
// nanoseconds per mapping, the summed statistics of the mappings that
// succeeded, and how many did not.
func rungMapper(c *ctx, name string, m placement.Mapper, starts []topology.NodeID, vecs []vivaldi.Coord) (float64, placement.MapStats, int) {
	var agg placement.MapStats
	misses := 0
	end := c.span(name)
	start := time.Now()
	for i, v := range vecs {
		_, st, err := m.MapCoord(starts[i], v, nil)
		if err != nil {
			misses++
			continue
		}
		agg.LookupHops += st.LookupHops
		agg.PeersWalked += st.PeersWalked
		agg.Error += st.Error
	}
	d := time.Since(start)
	end()
	return float64(d.Nanoseconds()) / float64(len(vecs)), agg, misses
}

// rungOracle times the k-NN index through OracleMapper.
func rungOracle(c *ctx, env *optimizer.Env) {
	snap := env.Freeze()
	snap.CostIndex()
	starts, vecs := mapTargets(c, env, c.sz.rungMaps)
	ns, _, misses := rungMapper(c, "costindex.knn_rung", placement.OracleMapper{Source: snap}, starts, vecs)
	c.rep.check(misses == 0, "oracle mapping failed for %d of %d targets", misses, len(vecs))
	c.rep.set("costindex.knn_ns", ns)
}

// rungDHT times DHTMapper and Catalog.Publish on the env's catalog.
func rungDHT(c *ctx, env *optimizer.Env) {
	cat := env.Catalog()
	if cat == nil {
		return
	}
	starts, vecs := mapTargets(c, env, c.sz.rungMaps)
	// The default mapper, bounded walk and all: a target in an empty
	// stretch of the ring finds nothing. That is counted, not failed —
	// the targets are the rung's own, not a workload's.
	ns, agg, misses := rungMapper(c, "dht.map_rung", placement.DHTMapper{Catalog: cat}, starts, vecs)
	found := float64(len(vecs) - misses)
	c.rep.set("dht.map_ns", ns)
	c.rep.set("dht.walk_miss_ratio", float64(misses)/float64(len(vecs)))
	c.rep.set("dht.lookup_hops_mean", ratio(float64(agg.LookupHops), found))
	c.rep.set("dht.peers_walked_mean", ratio(float64(agg.PeersWalked), found))

	// Republishing a node's current point is what every load change and
	// coordinate sync costs the catalog.
	rng := rand.New(rand.NewSource(c.seed * 23))
	end := c.span("dht.publish_rung")
	start := time.Now()
	for i := 0; i < c.sz.rungPublishes; i++ {
		node := topology.NodeID(rng.Intn(env.Topo.NumNodes()))
		if _, ok := cat.PublishedEntry(node); !ok {
			continue // crashed out of the catalog
		}
		_, err := cat.Publish(node, env.Point(node))
		c.rep.ops(1)
		if err != nil {
			c.rep.fail("dht publish of node %d: %v", node, err)
		}
	}
	d := time.Since(start)
	end()
	c.rep.set("dht.publish_us", float64(d.Microseconds())/float64(c.sz.rungPublishes))
}

// rungEnumerate replays plan enumeration over the workload's queries,
// grouped by join width.
func rungEnumerate(c *ctx, stats *query.Catalog, queries []query.Query) {
	enum := plan.NewEnumerator(stats)
	for _, w := range []struct {
		width int
		name  string
	}{{3, "plan.enumerate_us_3way"}, {4, "plan.enumerate_us_4way"}, {5, "plan.enumerate_us_5way"}} {
		var picked []query.Query
		for _, q := range queries {
			if len(q.Streams) == w.width {
				picked = append(picked, q)
				if len(picked) == c.sz.rungEnumPerWidth {
					break
				}
			}
		}
		if len(picked) == 0 {
			continue
		}
		end := c.span("plan.enumerate_rung")
		start := time.Now()
		for _, q := range picked {
			_, err := enum.Enumerate(q)
			c.rep.ops(1)
			if err != nil {
				c.rep.fail("enumerate query %d: %v", q.ID, err)
			}
		}
		d := time.Since(start)
		end()
		c.rep.set(w.name, float64(d.Microseconds())/float64(len(picked)))
	}
}

// rungStaged replays the optimizer's pipeline stage by stage — skeleton,
// virtual placement, physical mapping — timing each per plan.
func rungStaged(c *ctx, env *optimizer.Env, queries []query.Query) {
	snap := env.Freeze()
	snap.CostIndex()
	enum := plan.NewEnumerator(snap.Stats)
	b := &optimizer.Builder{Env: snap}
	placer := placement.Relaxation{}
	var mapper placement.Mapper = placement.OracleMapper{Source: snap}
	if cat := snap.Catalog(); cat != nil {
		mapper = wideDHT(cat)
	}
	if len(queries) > c.sz.rungStaged {
		queries = queries[:c.sz.rungStaged]
	}
	var skel, virt, phys time.Duration
	plans := 0
	end := c.span("placement.staged_rung")
	for _, q := range queries {
		ps, err := enum.Enumerate(q)
		c.rep.ops(1)
		if err != nil {
			c.rep.fail("staged replay: enumerate query %d: %v", q.ID, err)
			continue
		}
		for _, p := range ps {
			t0 := time.Now()
			circuit, err := b.Skeleton(q, p, nil)
			t1 := time.Now()
			if err == nil {
				err = b.PlaceVirtual(circuit, placer)
			}
			t2 := time.Now()
			if err == nil {
				_, err = b.MapPhysical(circuit, mapper)
			}
			t3 := time.Now()
			if err != nil {
				c.rep.fail("staged replay of query %d: %v", q.ID, err)
				continue
			}
			skel += t1.Sub(t0)
			virt += t2.Sub(t1)
			phys += t3.Sub(t2)
			plans++
		}
	}
	end()
	perPlan := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(plans)) }
	c.rep.set("placement.skeleton_us", perPlan(skel))
	c.rep.set("placement.virtual_us", perPlan(virt))
	c.rep.set("placement.map_us", perPlan(phys))
}

// rungSequential is the closed loop with one client: sequential
// Integrated.Optimize, each call timed, for the latency percentiles.
func rungSequential(c *ctx, env *optimizer.Env, queries []query.Query, samples int) {
	opt := integrated(env.Freeze())
	opt.Env.CostIndex()
	lat := make([]float64, 0, samples)
	end := c.span("optimizer.sequential_rung")
	for i := 0; i < samples; i++ {
		q := queries[i%len(queries)]
		start := time.Now()
		_, err := opt.Optimize(q)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		c.rep.ops(1)
		if err != nil {
			c.rep.fail("sequential optimize of query %d: %v", q.ID, err)
		}
	}
	end()
	c.rep.set("optimizer.query_p50_us", quantile(lat, 0.50))
	c.rep.set("optimizer.query_p95_us", quantile(lat, 0.95))
	c.rep.set("optimizer.query_p99_us", quantile(lat, 0.99))
}

// rungFreeze times Env.Freeze, which every batch pays once per pool.
func rungFreeze(c *ctx, env *optimizer.Env) {
	const reps = 20
	end := c.span("optimizer.freeze_rung")
	start := time.Now()
	for i := 0; i < reps; i++ {
		env.Freeze()
	}
	d := time.Since(start)
	end()
	c.rep.set("optimizer.freeze_ms", float64(d.Microseconds())/1e3/reps)
}

// rungKernel schedules and drains timers on a bare event kernel, holding
// `depth` of them pending the way the workload does: every fired timer
// schedules its successor until the event budget is spent. With a lane
// map the kernel is the sharded one and each node domain keeps its own
// chain; without, one queue holds them all.
func rungKernel(c *ctx, metric string, depth int, laneOf []int32, shards int, lookahead time.Duration) {
	if depth < 1 {
		depth = 1
	}
	var clk *simtime.VirtualClock
	if laneOf != nil {
		clk = simtime.NewVirtualSharded(laneOf, shards, lookahead)
		if depth > len(laneOf) {
			depth = len(laneOf)
		}
	} else {
		clk = simtime.NewVirtual()
	}
	release := clk.Drive()
	defer release()

	perChain := c.sz.rungEvents / depth
	if perChain < 1 {
		perChain = 1
	}
	// Delays spread over 1-200 virtual ms, like heartbeat and tuple
	// timers; the per-chain generator keeps lanes independent.
	for i := 0; i < depth; i++ {
		dom := simtime.Domain(i)
		state := uint64(c.seed)*0x9e3779b97f4a7c15 + uint64(i)
		left := perChain
		var fire func()
		next := func() time.Duration {
			state = state*6364136223846793005 + 1442695040888963407
			return time.Millisecond + time.Duration(state>>33)%(199*time.Millisecond)
		}
		fire = func() {
			left--
			if left > 0 {
				clk.ScheduleDomain(dom, dom, next(), fire)
			}
		}
		clk.ScheduleDomain(dom, dom, next(), fire)
	}
	end := c.span(metric + "_rung")
	start := time.Now()
	clk.Sleep(time.Duration(perChain+1) * 200 * time.Millisecond)
	d := time.Since(start)
	end()
	c.rep.check(clk.PendingEvents() == 0, "%s rung left %d events pending", metric, clk.PendingEvents())
	c.rep.set(metric, float64(perChain*depth)/d.Seconds())
}

// rungHeartbeats runs full-population heartbeats alone — no circuits,
// no faults, no detector — on a fresh network with the workload's lanes.
func rungHeartbeats(c *ctx, topo *topology.Topology, laneOf []int32, shards int, lookahead time.Duration) {
	clk := simtime.NewVirtualSharded(laneOf, shards, lookahead)
	release := clk.Drive()
	defer release()
	cfg := overlay.Config{TimeScale: time.Millisecond, Clock: clk}
	if clk.Shards() > 1 {
		cfg.DataShards, cfg.ShardOf = shards, laneOf
	}
	net := overlay.NewNetwork(topo, cfg)
	net.Start()
	defer net.Stop()
	hb := net.StartHeartbeats(c.sz.heartbeatEvery, 0.05)
	defer hb.Stop()
	end := c.span("overlay.heartbeat_rung")
	start := time.Now()
	clk.Sleep(time.Duration(c.sz.rungHeartbeatSimS * float64(time.Second)))
	d := time.Since(start)
	end()
	c.rep.set("overlay.hb_only_msgs_per_s", net.Metrics.Counter("msgs.sent").Value()/d.Seconds())
}
