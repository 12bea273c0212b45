package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
	"github.com/hourglass/sbon/internal/workload"
)

// netShape is a transit-stub topology shape.
type netShape struct {
	transitDomains, transitNodes, stubsPerTransit, stubNodes int
}

// sizes freezes every count a workload's work is made of. Work is fixed
// by count, never by wall time, so simulated statistics are identical
// run to run; the full sizes were chosen so that one slice is at least a
// second on the 2-core reference host.
type sizes struct {
	net2k, net16k netShape

	tickerWarmRounds int
	tickerSamples    int
	tickerInterval   time.Duration

	usageSample int // circuits the usage ratios are taken over
	checkSample int // batch results compared with sequential Optimize

	coldStreams, coldBatch, latencySamples int

	net16kStreams, warmQueries, warmBatchesPerSlice, shards int

	churnRoundsPerSlice, churnSyncEvery, churnBatch int
	churnDrift                                      float64

	flowCircuits               int
	flowWarmSimS, flowSliceSim float64 // simulated seconds

	crashCircuits, crashDataShards, crashRoundsPerSlice int
	crashPerSlice                                       int // nodes crashing per slice
	crashDrop, crashJitterMs, crashDrift                float64
	crashWarmSimS                                       float64
	heartbeatEvery, repairEvery                         time.Duration

	rungLatencyPairs, rungMaps, rungPublishes, rungEnumPerWidth, rungStaged, rungEvents int
	rungHeartbeatSimS                                                                   float64
}

var fullSizes = sizes{
	net2k:  netShape{4, 4, 8, 16},  // 16 + 16*8*16  = 2,064 nodes
	net16k: netShape{4, 4, 64, 16}, // 16 + 16*64*16 = 16,400 nodes

	tickerWarmRounds: 40,
	tickerSamples:    4,
	tickerInterval:   200 * time.Millisecond,

	usageSample: 2000,
	checkSample: 1000,

	coldStreams: 256, coldBatch: 2400, latencySamples: 4000,

	net16kStreams: 64, warmQueries: 20_000, warmBatchesPerSlice: 9, shards: 16,

	churnRoundsPerSlice: 9, churnSyncEvery: 4, churnBatch: 4000, churnDrift: 0.02,

	flowCircuits: 640, flowWarmSimS: 3, flowSliceSim: 2.25,

	crashCircuits: 256, crashDataShards: 16, crashRoundsPerSlice: 5,
	crashPerSlice: 24, crashDrop: 0.01, crashJitterMs: 2, crashDrift: 0.01, // 24 x 14 slices = 336 = 2% of the nodes
	crashWarmSimS:  3,
	heartbeatEvery: 200 * time.Millisecond, repairEvery: 500 * time.Millisecond,

	rungLatencyPairs: 1_000_000, rungMaps: 100_000, rungPublishes: 10_000,
	rungEnumPerWidth: 1000, rungStaged: 1000, rungEvents: 2_000_000,
	rungHeartbeatSimS: 5,
}

// smokeSizes shrinks every size about 50x so the harness can run under
// `go test` in seconds; its numbers mean nothing.
var smokeSizes = sizes{
	net2k:  netShape{2, 2, 2, 5}, // 44 nodes
	net16k: netShape{4, 4, 3, 7}, // 352 nodes

	tickerWarmRounds: 10,
	tickerSamples:    4,
	tickerInterval:   200 * time.Millisecond,

	usageSample: 40,
	checkSample: 20,

	coldStreams: 12, coldBatch: 60, latencySamples: 80,

	net16kStreams: 16, warmQueries: 2000, warmBatchesPerSlice: 1, shards: 4,

	churnRoundsPerSlice: 2, churnSyncEvery: 2, churnBatch: 40, churnDrift: 0.02,

	flowCircuits: 40, flowWarmSimS: 1, flowSliceSim: 1,

	crashCircuits: 24, crashDataShards: 4, crashRoundsPerSlice: 4,
	crashPerSlice: 1, crashDrop: 0.01, crashJitterMs: 2, crashDrift: 0.01,
	crashWarmSimS:  1,
	heartbeatEvery: 200 * time.Millisecond, repairEvery: 500 * time.Millisecond,

	rungLatencyPairs: 20_000, rungMaps: 2000, rungPublishes: 200,
	rungEnumPerWidth: 20, rungStaged: 20, rungEvents: 40_000,
	rungHeartbeatSimS: 1,
}

// networkSeed generates the overlay itself: topology, gossip
// coordinates and background loads. net2k and net16k are fixed networks
// — part of the benchmark's definition, like their sizes — and --seed
// generates what runs on them: stream catalog, queries, load drift,
// crash victims, message loss. Two seeds then differ in their traffic,
// not in the shape of the network, and host-time metrics of different
// seeds stay comparable.
const networkSeed = 29

// ctx is what a workload's set-up and slices run against: the seed, the
// frozen sizes, the span recorder (nil when untraced) and the run's
// report.
type ctx struct {
	seed    int64
	sz      sizes
	workers int // batch worker count, derived from GOMAXPROCS
	slices  int // timed slices this run will make
	rec     *recorder
	rep     *report

	// mallocs is the heap allocation count of the counted slices, for
	// the allocation metrics.
	mallocs float64
}

// span opens a benchmark span around a call into a layer.
func (c *ctx) span(name string) func() { return c.rec.begin(name) }

// tracing reports whether this is the traced pass.
func (c *ctx) tracing() bool { return c.rec != nil }

// setProcs pins the scheduler width: min(NumCPU, 4), so a larger host
// does not turn the benchmark into a different one.
func setProcs() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	runtime.GOMAXPROCS(p)
	return p
}

func (s netShape) config() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.TransitDomains = s.transitDomains
	cfg.TransitNodes = s.transitNodes
	cfg.StubsPerTransit = s.stubsPerTransit
	cfg.StubNodes = s.stubNodes
	return cfg
}

// genTopology generates the seeded transit-stub topology and builds its
// latency backend: the factored sparse tables or the dense matrix.
func (c *ctx) genTopology(shape netShape, sparse bool) (*topology.Topology, error) {
	end := c.span("topology.generate")
	topo, err := topology.Generate(shape.config(), rand.New(rand.NewSource(networkSeed)))
	end()
	if err != nil {
		return nil, err
	}
	end = c.span("topology.latency_build")
	defer end()
	if !sparse {
		topo.LatencyMatrix()
		return topo, nil
	}
	if err := topo.EnableSparseLatency(); err != nil {
		return nil, err
	}
	return topo, nil
}

// drift re-draws the background load of a share of the nodes from the
// distribution the environment drew them from at construction, so the
// load picture changes all the time and looks the same at any time: the
// last slice meets the conditions the first one met.
func (c *ctx) drift(env *optimizer.Env, share float64, rng *rand.Rand) {
	workload.ApplyChurn(env.Topo, env, workload.Churn{LoadFraction: share, LoadMax: env.Config().MaxBackgroundLoad}, rng)
}

// genStats publishes the stream catalog on the topology's stub nodes.
func genStats(topo *topology.Topology, streams int, rng *rand.Rand) (*query.Catalog, error) {
	cfg := workload.DefaultStreamConfig()
	cfg.NumStreams = streams
	return workload.GenerateStats(topo, cfg, rng)
}

// integrated returns a sequential integrated optimizer over env the way
// the benchmark's own worker pool runs it: on an environment with a DHT
// catalog the ring walk is bounded by the ring (wideDHT), so a target in
// an empty stretch of the Hilbert curve costs a longer walk instead of
// failing the query.
func integrated(env *optimizer.Env) *optimizer.Integrated {
	opt := optimizer.NewIntegrated(env)
	if cat := env.Catalog(); cat != nil {
		opt.Mapper = wideDHT(cat)
	}
	return opt
}

// optimizeAll optimizes every query, uncached, on one frozen snapshot of
// env with a GOMAXPROCS-wide pool of sequential optimizers — what
// OptimizeBatch does with NoCache set, except that the pool is the
// benchmark's own and so may carry the wide DHT mapper: the batch
// functions take no mapper, their default walk gives up after 32 peers,
// and one query that finds nothing fails the whole batch. No query of
// the seeds tried needs the longer walk on these networks; the pool
// makes sure that one that does, on some other seed, costs a longer
// walk and not the run. The query set is the seed's alone, and a query
// that does fail is counted.
// Results are in query order; a failed query leaves a nil Circuit.
func (c *ctx) optimizeAll(env *optimizer.Env, queries []query.Query) []optimizer.Result {
	snap := env.Freeze()
	snap.CostIndex()
	results := make([]optimizer.Result, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := integrated(snap)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, err := opt.Optimize(queries[i])
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = *res
			}
		}()
	}
	wg.Wait()
	c.rep.ops(len(queries))
	for i, err := range errs {
		if err != nil {
			c.rep.fail("optimize query %d: %v", queries[i].ID, err)
		}
	}
	return results
}

// shardedBatch runs one OptimizeBatchSharded over the persistent caches,
// one worker per pool (there are more pools than cores), and counts its
// queries as attempted operations.
func (c *ctx) shardedBatch(env *optimizer.Env, queries []query.Query, caches *optimizer.ShardedPlanCache) ([]optimizer.Result, *optimizer.ShardStats, error) {
	end := c.span("optimizer.batch_sharded")
	defer end()
	res, st, err := optimizer.OptimizeBatchSharded(env, queries, optimizer.ShardedBatchOptions{
		Shards: c.sz.shards, WorkersPerShard: 1, Caches: caches,
	})
	c.rep.ops(len(queries))
	if err != nil {
		c.rep.fail("OptimizeBatchSharded: %v", err)
	}
	return res, st, err
}

// genQueries draws n untemplated queries of minW..maxW streams.
func genQueries(topo *topology.Topology, stats *query.Catalog, n, minW, maxW int, aggregateProb float64, rng *rand.Rand, baseID int) ([]query.Query, error) {
	cfg := workload.DefaultQueryConfig()
	cfg.NumQueries = n
	cfg.StreamsPerQuery = [2]int{minW, maxW}
	cfg.AggregateProb = aggregateProb
	cfg.Templates = 0
	return workload.GenerateQueries(topo, stats, cfg, rng, baseID)
}

// envNet2k builds the 2k-node environment the paper-scale way: dense
// latency, batch Vivaldi embedding, DHT mapping on.
func (c *ctx) envNet2k(topo *topology.Topology, stats *query.Catalog) (*optimizer.Env, error) {
	cfg := optimizer.DefaultEnvConfig(networkSeed)
	if c.tracing() {
		// The embedding alone, so that the DHT build is the difference.
		end := c.span("vivaldi.embed")
		plain := cfg
		plain.UseDHT = false
		_, err := optimizer.NewEnv(topo, stats, plain)
		end()
		if err != nil {
			return nil, err
		}
	}
	end := c.span("optimizer.new_env")
	defer end()
	return optimizer.NewEnv(topo, stats, cfg)
}

// net16k is the large environment: sparse latency, coordinates from a
// gossip ticker on the virtual clock. The caller owns clk (already
// driven) and decides whether the ticker keeps running.
type net16k struct {
	topo   *topology.Topology
	stats  *query.Catalog
	clk    *simtime.VirtualClock
	ticker *vivaldi.Ticker
	env    *optimizer.Env
}

func (c *ctx) buildNet16k(streams int, useDHT bool) (*net16k, error) {
	topo, err := c.genTopology(c.sz.net16k, true)
	if err != nil {
		return nil, err
	}
	stats, err := genStats(topo, streams, rand.New(rand.NewSource(c.seed*3)))
	if err != nil {
		return nil, err
	}
	clk := simtime.NewVirtual()
	clk.Register()
	ticker, err := vivaldi.NewTicker(topo.NumNodes(), func(i, j int) float64 {
		return topo.Latency(topology.NodeID(i), topology.NodeID(j))
	}, vivaldi.DefaultConfig(), c.sz.tickerSamples, c.sz.tickerInterval, clk, rand.New(rand.NewSource(networkSeed*5)))
	if err != nil {
		return nil, err
	}
	ticker.Start()
	end := c.span("vivaldi.ticker_warm")
	clk.Sleep(time.Duration(c.sz.tickerWarmRounds) * c.sz.tickerInterval)
	end()

	cfg := optimizer.DefaultEnvConfig(networkSeed)
	cfg.UseDHT = false
	coords := ticker.Embedding().Coords
	if useDHT && c.tracing() {
		end := c.span("optimizer.new_env_plain")
		_, err := optimizer.NewEnvFromCoords(topo, stats, cfg, coords)
		end()
		if err != nil {
			return nil, err
		}
	}
	cfg.UseDHT = useDHT
	end = c.span("optimizer.new_env")
	env, err := optimizer.NewEnvFromCoords(topo, stats, cfg, coords)
	end()
	if err != nil {
		return nil, err
	}
	return &net16k{topo: topo, stats: stats, clk: clk, ticker: ticker, env: env}, nil
}

// close releases the clock: the driving goroutine unregisters and the
// scheduler (and any lanes) stop.
func (n *net16k) close() {
	n.ticker.Stop()
	n.clk.Unregister()
	n.clk.Stop()
}

// dataPlaneShards derives the sharded-clock inputs the way the
// experiments do: the optimizer's Hilbert-prefix regions as the lane
// map and the minimum edge latency as the conservative lookahead.
func dataPlaneShards(topo *topology.Topology, env *optimizer.Env, shards int, timeScale time.Duration) ([]int32, int, time.Duration, error) {
	k := optimizer.RoundShards(shards)
	laneOf, err := optimizer.NodeRegions(env, k)
	if err != nil {
		return nil, 0, 0, err
	}
	lookahead := time.Duration(topo.MinEdgeLatency() * float64(timeScale))
	if lookahead <= 0 {
		return nil, 0, 0, fmt.Errorf("topology has no positive edge latency: no conservative lookahead")
	}
	return laneOf, k, lookahead, nil
}
