package exp

// DefaultX18Params configures X17 as the sharded data plane's headline
// scale point: 102,464 overlay nodes (64 transit + 64·16·100 stub), a
// 500k-query batch through 64 optimizer regions, and the data plane on
// 64 per-shard event queues keyed to those regions. At this scale one
// event queue serializes everything one core can do; the sharded clock
// runs K wheels that synchronize only at lookahead barriers, and the
// event keys keep every artifact bit-identical to a single-queue run
// (TestX18Deterministic).
func DefaultX18Params() X17Params {
	p := DefaultX17Params()
	p.Seed = 31
	p.TransitDomains = 8
	p.TransitNodes = 8
	p.StubsPerTransit = 16
	p.StubNodes = 100
	p.Streams = 128
	p.Queries = 500_000
	p.Shards = 64
	p.DataShards = 64
	p.EngineCircuits = 1024
	p.Rounds = 2
	return p
}
