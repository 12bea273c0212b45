package exp

import (
	"fmt"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
	"github.com/hourglass/sbon/internal/workload"
)

// X17Params configures the 16k-node scale scenario.
type X17Params struct {
	Seed int64
	// Topology shape; the defaults give 16 transit + 16·64·16 stub =
	// 16400 nodes.
	TransitDomains  int
	TransitNodes    int
	StubsPerTransit int
	StubNodes       int

	// Streams is the published stream population.
	Streams int
	// Queries is the batch optimized through the sharded path.
	Queries int
	// Shards is the cost-space region count OptimizeBatchSharded counts
	// the batch's routing over; the batch itself runs on one pool.
	Shards int
	// DataShards executes the data plane on that many parallel
	// per-shard event queues keyed to the same Hilbert-prefix regions
	// (<= 1: the single-queue scheduler). Bit-identical artifacts by
	// construction; only wall time changes.
	DataShards int
	// EngineCircuits is how many optimized circuits additionally execute
	// on the data plane (all of them would be redundant for the
	// scheduling claim and slow; the engine subset plus full-population
	// heartbeats is what stresses the event kernel).
	EngineCircuits int

	// HeartbeatEvery enables full-population liveness traffic (0
	// disables — but heartbeats-on is the point of the scenario).
	HeartbeatEvery time.Duration

	// TickerInterval is the Vivaldi gossip-round period; TickerSamples
	// the peers each node measures per round; TickerWarmRounds the
	// rounds run before the environment is built from the coordinates.
	TickerInterval   time.Duration
	TickerSamples    int
	TickerWarmRounds int

	// Rounds is the number of drift → coordinate-sync → adapt rounds.
	Rounds int
	// DriftFraction of nodes get fresh background loads each round.
	DriftFraction float64
	// Budget caps migrations per adaptation round.
	Budget int
	// IntervalSimSeconds of dataflow between rounds.
	IntervalSimSeconds float64
	WarmupSimSeconds   float64
	TupleSizeKB        float64

	// Trace, when set, records the run's structured events (sampled
	// tuple hops, migration spans, heartbeat drops). Nil traces nothing.
	Trace *trace.Tracer
}

// DefaultX17Params returns the full-scale configuration: 16400 overlay
// nodes, 100k queries through 16 shards, heartbeats on.
func DefaultX17Params() X17Params {
	return X17Params{
		Seed:               29,
		TransitDomains:     4,
		TransitNodes:       4,
		StubsPerTransit:    64,
		StubNodes:          16,
		Streams:            64,
		Queries:            100_000,
		Shards:             16,
		DataShards:         16,
		EngineCircuits:     512,
		HeartbeatEvery:     500 * time.Millisecond,
		TickerInterval:     200 * time.Millisecond,
		TickerSamples:      4,
		TickerWarmRounds:   40,
		Rounds:             3,
		DriftFraction:      0.02,
		Budget:             32,
		IntervalSimSeconds: 1,
		WarmupSimSeconds:   2,
		TupleSizeKB:        4,
	}
}

// topologyConfig is the transit-stub shape the parameters describe.
func (p X17Params) topologyConfig() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.TransitDomains = p.TransitDomains
	cfg.TransitNodes = p.TransitNodes
	cfg.StubsPerTransit = p.StubsPerTransit
	cfg.StubNodes = p.StubNodes
	return cfg
}

// X17 is the 100k-overlay-scale scenario this PR's two kernels exist
// for: a ≥16k-node transit-stub overlay whose latencies are answered
// from the factored transit-stub tables (an all-pairs matrix would be
// ~2 GB), whose Vivaldi coordinates are maintained by a background
// gossip Ticker on the virtual clock (never a batch embedding), and
// whose ≥100k-query population is optimized through the sharded batch
// path. A subset of circuits then executes on the data plane with
// full-population heartbeats — hundreds of thousands of pending timer
// events, the load the hierarchical timer wheel makes O(1) — while
// load drifts and the adaptation layer migrates services against
// periodically synced coordinates.
//
// Reported per round: coordinates synced, mean coordinate staleness
// at sync (how far the ticker's embedding had drifted from the
// optimizer's view, the cost of periodic rather than continuous
// sync), migrations planned/executed, and migration oscillations
// (A→B→A returns — the thrash metric periodic sync risks). The same
// numbers are recorded on the overlay metrics registry as
// coord.syncs / coord.staleness_ms / adapt.oscillations.
func X17(p X17Params) (*Table, error) {
	d := DefaultX17Params()
	orDefault(&p.TransitDomains, d.TransitDomains)
	orDefault(&p.TransitNodes, d.TransitNodes)
	orDefault(&p.StubsPerTransit, d.StubsPerTransit)
	orDefault(&p.StubNodes, d.StubNodes)
	orDefault(&p.Streams, d.Streams)
	orDefault(&p.Queries, d.Queries)
	orDefault(&p.Shards, d.Shards)
	orDefault(&p.EngineCircuits, d.EngineCircuits)
	orDefault(&p.TickerInterval, d.TickerInterval)
	orDefault(&p.TickerSamples, d.TickerSamples)
	orDefault(&p.TickerWarmRounds, d.TickerWarmRounds)
	orDefault(&p.Rounds, d.Rounds)
	orDefault(&p.DriftFraction, d.DriftFraction)
	orDefault(&p.Budget, d.Budget)
	orDefault(&p.IntervalSimSeconds, d.IntervalSimSeconds)
	orDefault(&p.WarmupSimSeconds, d.WarmupSimSeconds)
	orDefault(&p.TupleSizeKB, d.TupleSizeKB)
	wallStart := time.Now()

	// Everything runs on one virtual clock: Vivaldi gossip rounds, tuple
	// deliveries, heartbeats, migration phases. A deployed overlay
	// measures a few peers per round rather than batch-embedding all
	// pairs, and building a 16k-peer ring adds nothing here, so mapping
	// is the oracle's.
	w, err := scenario.Build(scenario.Spec{
		Seed:       p.Seed,
		Topology:   p.topologyConfig(),
		Streams:    streamsOf(p.Streams),
		Queries:    queriesOf(p.Queries, 1, 2),
		Ticker:     &scenario.Ticker{Samples: p.TickerSamples, Interval: p.TickerInterval, WarmRounds: p.TickerWarmRounds},
		DataShards: p.DataShards,
		Engine:     expEngine(p.TupleSizeKB),
		Tracer:     p.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo, env, dep, clk, ticker, qs := w.Topo, w.Env, w.Deployment, w.Clock, w.Ticker, w.Queries
	n := topo.NumNodes()

	// The sharded batch: the scenario's optimization throughput claim.
	optStart := time.Now()
	results, shardStats, err := optimizer.OptimizeBatchSharded(env, qs, optimizer.ShardedBatchOptions{Shards: p.Shards})
	if err != nil {
		return nil, err
	}
	optWall := time.Since(optStart)
	homeRouted := 0
	for _, c := range shardStats.Routed {
		homeRouted += c
	}

	// The data plane's lane map is the same region assignment the batch
	// above routed by.
	if err := w.StartDataPlane(); err != nil {
		return nil, err
	}
	net := w.Net
	if err := w.Deploy(circuitsOf(results[:min(p.EngineCircuits, len(results))])...); err != nil {
		return nil, err
	}
	truth := optimizer.TrueLatency{Topo: topo}
	if p.HeartbeatEvery > 0 {
		w.StartHeartbeats(p.HeartbeatEvery)
	}
	w.SimSleep(p.WarmupSimSeconds)
	pendingPeak := clk.PendingEvents()

	// lastFrom remembers where each (query, service) sat before its
	// latest migration; a selected move back onto that node is an
	// oscillation.
	lastFrom := make(map[string]topology.NodeID)
	osc := 0
	co := w.Coordinator()
	co.Model, co.Threshold = truth, 0.01
	co.Select = func(plan optimizer.MigrationPlan) optimizer.MigrationPlan {
		selected := bestMoves(plan, p.Budget)
		for _, m := range selected.Moves {
			key := fmt.Sprintf("%d/%d", m.Query, m.Service)
			if prev, ok := lastFrom[key]; ok && prev == m.To {
				osc++
			}
			lastFrom[key] = m.From
		}
		return selected
	}
	churn := workload.Churn{LoadFraction: p.DriftFraction, LoadMax: 0.9}

	staleSeries := net.Metrics.Series("coord.staleness_ms")
	syncCounter := net.Metrics.Counter("coord.syncs")
	movedCounter := net.Metrics.Counter("coord.synced_nodes")
	oscCounter := net.Metrics.Counter("adapt.oscillations")

	t := NewTable(fmt.Sprintf("X17 — %d-node overlay: %d queries through %d regions, %d-lane data plane, ticker coordinates",
		n, len(qs), shardStats.Shards, net.DataShards()),
		"round", "synced", "staleness ms", "planned", "migrated", "oscillations", "usage before", "usage after", "pending events")
	totalMigrations := 0
	for round := 1; round <= p.Rounds; round++ {
		w.Drift(churn)

		// Periodic coordinate sync from the ticker: measure how stale the
		// optimizer's view had become (mean displacement in coordinate
		// space, ms by construction) before adopting the fresh embedding.
		fresh := ticker.Embedding().Coords
		var displacement float64
		for i, c := range fresh {
			displacement += env.Coord(topology.NodeID(i)).Distance(c)
		}
		staleness := displacement / float64(n)
		synced, err := env.SetCoordinates(fresh)
		if err != nil {
			return nil, err
		}
		syncCounter.Inc()
		movedCounter.Add(float64(synced))
		staleSeries.Record(float64(clk.Now().UnixNano())/1e6, staleness)

		before := dep.TotalUsage(truth)
		osc = 0
		r, err := co.Round(nil, nil)
		if err != nil {
			return nil, err
		}
		oscCounter.Add(float64(osc))
		totalMigrations += r.Sweep.Migrated
		w.SimSleep(p.IntervalSimSeconds)
		if pe := clk.PendingEvents(); pe > pendingPeak {
			pendingPeak = pe
		}
		after := dep.TotalUsage(truth)
		t.AddRow(round, synced, staleness, r.Sweep.Planned, r.Sweep.Migrated, osc, before, after, clk.PendingEvents())
	}

	// Quiesce and close the loss accounting.
	produced, delivered := w.Quiesce()
	beats := net.Metrics.Counter("hb.recv").Value()
	unrouted := int(net.Metrics.Counter("msgs.unrouted").Value())
	wall := time.Since(wallStart)

	t.AddNote("%d nodes (%d stub domains, factored latency — no all-pairs matrix), %d streams, %d queries optimized",
		n, topo.NumStubDomains(), p.Streams, len(results))
	t.AddNote("sharded batch: %d shards, %d home-routed (%.1f%%), %d fallback; %.0f queries/s on this host (%v; one GOMAXPROCS worker pool and one plan cache serve every region)",
		shardStats.Shards, homeRouted, 100*float64(homeRouted)/float64(len(qs)), shardStats.Fallback,
		float64(len(qs))/optWall.Seconds(), optWall.Round(time.Millisecond))
	t.AddNote("ticker coordinates: %d gossip rounds total, embedding median rel err %.3f; %d periodic syncs, %d oscillations out of %d migrations",
		ticker.Rounds(), env.EmbeddingQuality.MedianRelErr, p.Rounds, int(oscCounter.Value()), totalMigrations)
	t.AddNote("event kernel: peak %d pending events; %d circuits executing, %.0f heartbeats delivered; produced %d tuples, delivered %d, unrouted %d",
		pendingPeak, len(w.Runs), beats, produced, delivered, unrouted)
	t.AddNote("placement fingerprint %016x; data plane on %d event queue(s)",
		placementFingerprint(dep), net.DataShards())
	t.AddNote("wall %v end to end under virtual time", wall.Round(time.Millisecond))
	return t, nil
}
