package simtime

// Domain identifies a deterministic event source. The sharded data
// plane partitions the simulation into per-node domains (Domain(nodeID))
// plus one Control domain for everything driven by harness goroutines
// and scheduler-context callbacks (sweeps, detectors, migration phases,
// fault plans). Each domain's event stream is executed serially, so a
// per-domain schedule counter is enough to make the global event order
// a pure function of the event history — independent of how many shards
// execute it and of goroutine scheduling.
type Domain int32

// Control is the domain of harness- and scheduler-context work. Control
// events at an instant order before any node-domain event at the same
// instant, which matches the barrier semantics of the lanes: control
// work runs between windows, never inside them.
const Control Domain = -1

// domainSeqBits splits the packed event key: the high bits carry
// origin+1 (Control packs to 0, so control events sort first within an
// instant), the low 44 bits carry the per-domain schedule counter. The
// split supports ~1M domains and 2^44 events per domain — far past any
// scenario here — while keeping the key a single uint64 so the event
// queues compare exactly as before.
const domainSeqBits = 44
