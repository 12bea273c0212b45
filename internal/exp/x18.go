package exp

// X18 is the sharded data plane's headline scale point: a 102,464-node
// transit-stub overlay, a 500k-query batch through 64 optimizer
// regions, and the data plane executing on 64 parallel per-shard event
// queues keyed to those same regions. The scenario structure is X17's —
// ticker-maintained coordinates, full-population heartbeats, drift and
// adaptation rounds — at a scale where the single event queue
// serializes everything one core can do; the sharded clock turns the
// event kernel into K independent wheels that only synchronize at
// conservative lookahead barriers. Artifacts stay bit-identical to a
// single-queue run by the event-key construction, so the scale point
// adds parallelism, never a new semantics (TestX18Deterministic).
func X18(p X17Params) (*Table, error) {
	t, err := X17(p)
	if err != nil {
		return nil, err
	}
	t.Title = "X18 — 100k-node overlay: 500k queries, 64-shard data plane"
	return t, nil
}

// DefaultX18Params returns the full-scale configuration: 102464 overlay
// nodes (64 transit + 64·16·100 stub: 16 stub domains of 100 nodes per
// transit node), 500k queries, 64 regions, 64 data-plane shards.
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
