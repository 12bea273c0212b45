package exp

// DefaultX18Params configures X17 as the sharded data plane's headline
// scale point: 102,464 overlay nodes (64 transit + 64·16·100 stub), a
// 500k-query batch through 64 optimizer regions, and the data plane on
// 64 per-shard event queues keyed to those regions. At this scale one
// event queue serializes everything one core can do; the sharded clock
// runs K wheels that synchronize only at lookahead barriers, and the
// event keys keep every artifact bit-identical to a single-queue run
// (TestX18Deterministic). Small keeps that structure and 64-way
// sharding at 4160 nodes and 2000 queries.
func DefaultX18Params(s Scale) X17Params {
	p := X17Params{
		Seed:             31,
		TransitDomains:   8,
		TransitNodes:     8,
		StubsPerTransit:  16,
		StubNodes:        100,
		Streams:          128,
		Queries:          500_000,
		Shards:           64,
		DataShards:       64,
		EngineCircuits:   1024,
		TickerWarmRounds: 40,
		Rounds:           2,
	}
	if s == Small {
		p.StubsPerTransit = 8
		p.StubNodes = 8 // 64 + 64·8·8 = 4160 nodes
		p.Streams = 32
		p.Queries = 2000
		p.EngineCircuits = 64
		p.TickerWarmRounds = 10
	}
	return p
}
