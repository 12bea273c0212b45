// Package overlay is the SBON runtime, a discrete-event simulation on
// a virtual clock (package simtime): a message between nodes is an
// event on the clock's timer wheel, delayed by the topology's
// shortest-path latency; handlers run at exact simulated timestamps,
// and a fixed seed reproduces the run bit for bit. The stream engine
// (package stream) deploys circuits onto it; examples and integration
// tests run real dataflows through it.
//
// The data path allocates nothing per message. A message in
// flight is one recycled record — the clock event, the network and the
// Message together — that Send takes from the sending lane's free list
// and the event's own callback puts back on the delivering lane's once
// the handler has returned; a node's
// heartbeat is one event that the beat itself re-arms every period.
// Both rest on simtime's caller-owned event contract: an Event may be
// scheduled again only after it fired or was stopped, and has one owner
// (a goroutine, or inside a lane's window a node domain) at a time.
// Handlers receive the Message by value and Send returns no handle, so
// nothing can reach a record after it was recycled. A stream tuple
// travels inside the Message too, by value, as its Datum: SendData
// copies it into the record and the handler reads it out, so a data
// message allocates nothing from producer to sink. Only a control
// message that has something to say pays for it: Send boxes a non-nil
// payload into Message.Payload.
//
// Concurrency model: the runtime starts no goroutine of its own. On a
// one-lane clock all handlers run on the sleeping goroutine; on a
// sharded clock a node's handlers run serially on its shard's lane
// worker, and control code (code between sleeps, control
// events) runs only between windows, while no lane does. Either way
// handlers on one node never race with each other, Send never blocks,
// and messages between the same pair of instants are delivered in send
// order (FIFO event tie-breaking). The send and dispatch path takes no
// lock and no compare-and-swap: each lane owns a row of the traffic
// counters (metrics.Lanes), written plainly and read between windows,
// and a node's port table is an immutable slice behind an atomic
// pointer, replaced whole by Register and Unregister.
package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hourglass/sbon/internal/metrics"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// Message is one unit of overlay traffic. It is copied into the
// delivery record, into the handler and into whatever closure a handler
// captures it in; Go captures a variable by value only up to 128 bytes,
// so a larger Message would move to the heap in every such handler.
type Message struct {
	From, To topology.NodeID
	// Port selects the handler on the destination node.
	Port string
	// SizeKB is the payload size used for network accounting.
	SizeKB float64
	// Payload is what a control message sent with Send carries; nil on a
	// data message.
	Payload any
	// Data is the tuple a data message sent with SendData carries; zero
	// on a control message.
	Data Datum
	// SentAt is the clock's send time.
	SentAt time.Time
}

// Datum is a stream tuple on the wire, by value: which input of the
// receiving operator it feeds, and the tuple's fields. Its size travels
// as Message.SizeKB.
type Datum struct {
	Side, Stream int32
	Key          int64
	Value        float64
	// Created is the clock time the tuple entered the system at its
	// producer.
	Created time.Time
}

// Handler processes messages delivered to a port, in the event that
// delivers them: it must not block.
type Handler func(Message)

// Config tunes the runtime.
type Config struct {
	// TimeScale and InboxSize are read by nothing: bench/, frozen until
	// the ROADMAP's "Benchmark v2" direction, sets them in composite
	// literals. One simulated millisecond of latency is one clock
	// millisecond.
	TimeScale time.Duration
	InboxSize int
	// Clock drives message delivery and timestamps. Nil means a fresh
	// one-lane clock, reachable through Network.Clock; one built
	// with simtime.NewVirtualSharded executes the data plane on
	// parallel per-shard event queues (see DataShards/ShardOf).
	Clock *simtime.VirtualClock

	// DataShards is the number of parallel data-plane shards the
	// runtime is keyed for (<= 1 means the single event queue). It must
	// match the shard count of the sharded clock when one is installed;
	// it also sizes the per-shard traffic counters.
	DataShards int
	// ShardOf maps each node to its data-plane shard, nil meaning all
	// shard 0. Callers derive it from the same Hilbert-prefix regions
	// the sharded optimizer uses (optimizer.NodeRegions), so
	// intra-region traffic — the bulk, by the cost-space locality the
	// paper's placement optimizes for — stays shard-local. On a sharded
	// clock it must be the clock's lane map: a shard's counters are
	// written, unsynchronized, by that lane's events alone.
	ShardOf []int32
}

// Network hosts the overlay nodes and routes messages between them with
// latency.
type Network struct {
	topo  *topology.Topology
	cfg   Config
	clock *simtime.VirtualClock

	nodes []*Node
	quit  chan struct{}

	stopOnce sync.Once

	// shardOf maps nodes to data-plane shards (all zero without
	// sharding); lanes holds the traffic counters, one row per shard,
	// which the registry's counters sum in shard order. A counter is
	// charged to the lane that runs the event: the sender's for a send,
	// the destination's for a delivery.
	shardOf []int32
	lanes   metrics.Lanes

	// recs holds each lane's free delivery records, spare the surplus
	// rebalance moves between them.
	recs  []records
	spare []*delivery

	// sampleCtr holds one trace-sampling counter per origin domain
	// (index origin+1), so sampling decisions on the data path are a
	// pure function of each node's own history — identical under
	// single-queue and sharded execution. Counters are unsynchronized:
	// a domain's events execute serially.
	sampleCtr []uint64

	// faults is the armed fault injector, nil when no FaultPlan is
	// installed (see faults.go).
	faults atomic.Pointer[FaultInjector]
	// tracer, when set, receives sampled fault-drop events and the
	// injected crash/recovery instants. Nil (the default) costs one
	// atomic load on the fault path only.
	tracer atomic.Pointer[trace.Tracer]
	// hbObserver, when set, sees every delivered heartbeat — the hook
	// failure detectors consume liveness traffic through. Calls are
	// deferred through the clock's observation barrier, so under sharded
	// execution the observer runs serialized in deterministic order.
	hbObserver atomic.Pointer[func(from, to int, at time.Time)]

	// Metrics is the runtime's registry: counters msgs.sent, msgs.dropped,
	// kb.sent, usage.kbms (Σ sizeKB × latencyMs, the integral of
	// data-in-transit), hb.sent/hb.recv once heartbeats start, the
	// churn counters msgs.down_dropped / hb.down_dropped /
	// msgs.down_refused once nodes are marked down, and the injected
	// fault counters faults.dropped / faults.hb_dropped /
	// hb.postmortem_dropped / faults.crashes / faults.recoveries once a
	// FaultPlan is installed.
	Metrics *metrics.Registry
}

// NewNetwork builds a runtime over the topology, live at once.
func NewNetwork(topo *topology.Topology, cfg Config) *Network {
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewVirtual()
	}
	if cfg.DataShards <= 0 {
		cfg.DataShards = 1
	}
	if k := cfg.Clock.Shards(); k > 1 && k != cfg.DataShards || cfg.ShardOf != nil && len(cfg.ShardOf) != topo.NumNodes() {
		panic(fmt.Sprintf("overlay: %d shards and %d ShardOf entries on a %d-lane clock with %d nodes",
			cfg.DataShards, len(cfg.ShardOf), k, topo.NumNodes()))
	}
	n := &Network{
		topo:    topo,
		cfg:     cfg,
		clock:   cfg.Clock,
		quit:    make(chan struct{}),
		Metrics: metrics.NewRegistry(),
	}
	n.shardOf = make([]int32, topo.NumNodes())
	copy(n.shardOf, cfg.ShardOf)
	n.lanes = metrics.NewLanes(cfg.DataShards, numStats)
	n.recs = make([]records, cfg.DataShards)
	if cfg.DataShards > 1 {
		cfg.Clock.OnBarrier(n.rebalance)
	}
	n.sampleCtr = make([]uint64, topo.NumNodes()+1)
	for i := range statHBSent {
		n.registerStat(i)
	}
	n.nodes = make([]*Node, topo.NumNodes())
	for i := range n.nodes {
		n.nodes[i] = &Node{id: topology.NodeID(i), net: n}
	}
	return n
}

// Start does nothing — there are no node goroutines to launch, dispatch
// rides the event scheduler — and stays for bench/dataplane.go, frozen
// until the ROADMAP's "Benchmark v2" direction.
func (n *Network) Start() {}

// Stop shuts the runtime down: pending delivery events are abandoned
// (they count msgs.dropped if the clock ever fires them). Safe to call
// more than once.
func (n *Network) Stop() {
	n.stopOnce.Do(func() { close(n.quit) })
}

// Node returns the runtime node for the overlay node id.
func (n *Network) Node(id topology.NodeID) *Node { return n.nodes[id] }

// NumNodes returns the overlay size.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Clock returns the clock driving the runtime — what shard-context
// code schedules and observes through.
func (n *Network) Clock() *simtime.VirtualClock { return n.clock }

// NowAt returns the current time as seen from the node's execution
// context: inside a parallel window, the node's shard-local event time;
// otherwise the global clock time. Node-context code must use this (or
// Message.SentAt) instead of Clock().Now(), which is only coherent at
// barriers.
func (n *Network) NowAt(id topology.NodeID) time.Time {
	return n.clock.DomainNow(simtime.Domain(id))
}

// ObserveAt defers fn to the clock's next synchronization point, where
// deferred observations run serially in deterministic order; fn
// receives the virtual time of the observing event. Outside a parallel
// window fn runs inline.
func (n *Network) ObserveAt(id topology.NodeID, fn func(at time.Time)) {
	n.clock.Observe(simtime.Domain(id), fn)
}

// TraceSampleCtr returns the node's private trace-sampling counter, for
// trace.Tracer.SampleAt on node-context hot paths: the decision becomes
// a pure function of the node's own emission history, identical under
// single-queue and sharded execution.
func (n *Network) TraceSampleCtr(id topology.NodeID) *uint64 {
	return &n.sampleCtr[int(id)+1]
}

// DataShards returns the configured shard count (1 when unsharded).
func (n *Network) DataShards() int { return n.cfg.DataShards }

// ShardOf returns the node's data-plane shard: the lane that runs its
// events on a sharded clock, and so the one row of per-lane state that
// code acting as the node may write.
func (n *Network) ShardOf(id topology.NodeID) int { return int(n.shardOf[id]) }

// The per-lane traffic counters, by their slot in a lane's row of
// Network.lanes; statNames are their registry names.
const (
	statMsgsSent = iota
	statKBSent
	statUsageKBms
	statMsgsDropped
	statDownRefused
	statDownDropped
	statHBDownDropped
	statHBPostmortem
	statUnrouted
	statFaultsDropped
	statFaultsHBDropped
	statHBSent // the heartbeat counters, registered once heartbeats start
	statHBRecv
	numStats
)

var statNames = [numStats]string{
	"msgs.sent", "kb.sent", "usage.kbms", "msgs.dropped", "msgs.down_refused",
	"msgs.down_dropped", "hb.down_dropped", "hb.postmortem_dropped", "msgs.unrouted",
	"faults.dropped", "faults.hb_dropped", "hb.sent", "hb.recv",
}

// registerStat lists counter i in the registry, as its lanes' sum.
func (n *Network) registerStat(i int) {
	n.Metrics.CounterFunc(statNames[i], func() float64 { return n.lanes.Sum(i) })
}

// count adds one to counter i of the node's lane.
func (n *Network) count(id topology.NodeID, i int) { n.lanes.Add(int(n.shardOf[id]), i, 1) }

// ShardCounters is a point-in-time snapshot of one shard's counters.
type ShardCounters struct {
	MsgsSent, HBSent, HBRecv, FaultsDropped int64
}

// ShardCounters snapshots the per-shard traffic counters. Summed over
// shards, MsgsSent equals the registry's msgs.sent, HBSent hb.sent,
// HBRecv hb.recv, and FaultsDropped faults.dropped + faults.hb_dropped.
func (n *Network) ShardCounters() []ShardCounters {
	out := make([]ShardCounters, n.cfg.DataShards)
	for i := range out {
		get := func(s int) int64 { return int64(n.lanes.Get(i, s)) }
		out[i] = ShardCounters{
			MsgsSent:      get(statMsgsSent),
			HBSent:        get(statHBSent),
			HBRecv:        get(statHBRecv),
			FaultsDropped: get(statFaultsDropped) + get(statFaultsHBDropped),
		}
	}
	return out
}

// SimMillis converts an elapsed clock duration into simulated
// milliseconds.
func (n *Network) SimMillis(wall time.Duration) float64 {
	return float64(wall) / float64(time.Millisecond)
}

// Node is one overlay participant: a port table and a liveness flag.
type Node struct {
	id  topology.NodeID
	net *Network

	// down marks a departed/failed node: its deliveries are dropped and
	// counted, and it originates no traffic. The flag is what node-churn
	// scenarios flip to kill and re-join overlay participants mid-run.
	down atomic.Bool

	// ports is the node's handler table, nil while it has none: a node
	// holds a handful of ports, so dispatch scans the slice by name
	// rather than hash a string, and the slice is never written after it
	// is published, so dispatch takes no lock.
	ports atomic.Pointer[[]portHandler]
}

type portHandler struct {
	port string
	h    Handler
}

// Register installs the handler for a port, replacing any previous one.
func (nd *Node) Register(port string, h Handler) { nd.setPort(port, h) }

// Unregister removes the handler for a port; an unknown port is a no-op.
func (nd *Node) Unregister(port string) { nd.setPort(port, nil) }

// setPort publishes a copy of the port table with port bound to h, or
// absent when h is nil. Writers race only with each other, and rarely:
// the loser of the compare-and-swap starts over from the winner's table.
func (nd *Node) setPort(port string, h Handler) {
	for {
		old := nd.ports.Load()
		var next []portHandler
		if old != nil {
			next = make([]portHandler, 0, len(*old)+1)
			for _, p := range *old {
				if p.port != port {
					next = append(next, p)
				}
			}
		}
		if h != nil {
			next = append(next, portHandler{port, h})
		} else if old == nil || len(next) == len(*old) {
			return // the port was not bound
		}
		var nextp *[]portHandler
		if len(next) > 0 {
			nextp = &next
		}
		if nd.ports.CompareAndSwap(old, nextp) {
			return
		}
	}
}

// handler returns the handler bound to port, nil when there is none.
func (nd *Node) handler(port string) Handler {
	if tab := nd.ports.Load(); tab != nil {
		for i := range *tab {
			if p := &(*tab)[i]; p.port == port {
				return p.h
			}
		}
	}
	return nil
}

// SetNodeDown marks the node dead (down=true) or rejoined (down=false).
// A dead node's incoming deliveries are dropped and counted in
// msgs.down_dropped (hb.down_dropped for heartbeat pings, so liveness
// noise never pollutes data-loss accounting), and its outgoing Sends are
// refused. Live re-optimization drains a node's services before the
// control plane marks it down; a zero down-drop count is therefore the
// data plane's proof of lossless migration.
func (n *Network) SetNodeDown(id topology.NodeID, down bool) {
	n.nodes[id].down.Store(down)
}

// NodeDown reports whether the node is currently marked down.
func (n *Network) NodeDown(id topology.NodeID) bool { return n.nodes[id].down.Load() }

// SetTracer installs (or, with nil, removes) the trace sink for fault
// events. Safe to call at any time; the fault path reloads it per
// message.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// Send schedules delivery of a message to the port on the destination
// node, after the topology latency (scaled). It never blocks; messages
// sent after Stop — or from a node marked down — are dropped.
//
// Sharded execution: Send always acts as the *sender's* domain — the
// delivery event is keyed (arrival time, sender, sender's sequence) and
// executed in the destination's shard. Within a shard it is a plain
// queue insert; across shards it rides the clock's outbox/barrier
// mailbox. Either way the key — and so the global delivery order — is
// independent of which shard executes what when.
func (nd *Node) Send(to topology.NodeID, port string, sizeKB float64, payload any) error {
	return nd.send(&Message{To: to, Port: port, SizeKB: sizeKB, Payload: payload})
}

// SendData is Send for a stream tuple: the tuple rides in the Message
// as Data, by value, so nothing is boxed and nothing is allocated.
func (nd *Node) SendData(to topology.NodeID, port string, sizeKB float64, d Datum) error {
	return nd.send(&Message{To: to, Port: port, SizeKB: sizeKB, Data: d})
}

// send stamps msg with its sender and send time and puts a copy of it
// in flight. Its counters go to the sender's lane.
func (nd *Node) send(msg *Message) error {
	to, port, sizeKB := msg.To, msg.Port, msg.SizeKB
	if int(to) < 0 || int(to) >= len(nd.net.nodes) {
		return fmt.Errorf("overlay: destination %d out of range", to)
	}
	n := nd.net
	origin := simtime.Domain(nd.id)
	lane := int(n.shardOf[nd.id])
	if nd.down.Load() {
		n.lanes.Add(lane, statDownRefused, 1)
		return fmt.Errorf("overlay: node %d is down", nd.id)
	}
	msg.From, msg.SentAt = nd.id, n.clock.DomainNow(origin)
	latMs := n.topo.Latency(nd.id, to)

	n.lanes.Add(lane, statMsgsSent, 1)
	n.lanes.Add(lane, statKBSent, sizeKB)
	n.lanes.Add(lane, statUsageKBms, sizeKB*latMs)

	if fi := n.faults.Load(); fi != nil {
		drop, extraMs := fi.onSend(nd.id, to, msg.SentAt)
		if drop {
			if port == HeartbeatPort {
				n.lanes.Add(lane, statFaultsHBDropped, 1)
			} else {
				n.lanes.Add(lane, statFaultsDropped, 1)
			}
			if tr := n.tracer.Load(); tr.Enabled() && tr.SampleAt(&n.sampleCtr[int(nd.id)+1]) {
				n.clock.Observe(origin, func(at time.Time) {
					tr.EmitAtTime(at, "overlay", "fault_drop",
						trace.Int("from", int(nd.id)), trace.Int("to", int(to)),
						trace.Str("port", port))
				})
			}
			return nil // silent loss: the sender never learns
		}
		latMs += extraMs
	}
	delay := time.Duration(latMs * float64(time.Millisecond))

	// The delivery is a clock event that dispatches the handler directly
	// at the arrival instant, in the destination's shard.
	// The record comes from the sender's lane, or is made.
	r := &n.recs[lane]
	r.taken++
	var d *delivery
	if k := len(r.free) - 1; k >= 0 {
		d, r.free = r.free[k], r.free[:k]
	} else {
		d = &delivery{net: n}
		d.ev.Fn = d.fire // bound once, for every flight the record makes
	}
	d.msg = *msg
	n.clock.ScheduleEvent(&d.ev, origin, simtime.Domain(to), delay)
	return nil
}

// delivery is one message in flight: the clock event and what it
// delivers, in one recycled record. Send takes it from the sender's
// lane and fire returns it to the destination's once the handler is
// back; nothing else ever holds it — Send hands out no handle, and
// handlers get the Message by value — so a recycled record cannot be
// stopped, re-armed or read through a stale reference.
type delivery struct {
	ev  simtime.Event
	net *Network
	msg Message
}

// records is one lane's free list of delivery records, on a cache line
// of its own. taken counts the records the lane took since the last
// barrier, want the most it took between two barriers.
type records struct {
	free        []*delivery
	taken, want int
	_           [64 - 40]byte
}

// rebalance runs at every barrier of a sharded network. A record leaves
// the lane that sent it and returns to the lane that delivered it, so a
// lane that mostly receives would hoard records and one that mostly
// sends would make new ones. Each lane keeps as many as it ever took in
// one window: it hands the rest to a spare list, or refills from it.
func (n *Network) rebalance() {
	for i := range n.recs {
		r := &n.recs[i]
		r.want, r.taken = max(r.want, r.taken), 0
		if k := len(r.free) - r.want; k > 0 {
			n.spare = append(n.spare, r.free[r.want:]...)
			clear(r.free[r.want:])
			r.free = r.free[:r.want]
		} else if k = min(-k, len(n.spare)); k > 0 {
			r.free = append(r.free, n.spare[len(n.spare)-k:]...)
			clear(n.spare[len(n.spare)-k:])
			n.spare = n.spare[:len(n.spare)-k]
		}
	}
}

// fire is the delivery event: dispatch at the arrival instant, in the
// destination's lane, unless the runtime stopped meanwhile.
func (d *delivery) fire() {
	n, to := d.net, d.msg.To
	select {
	case <-n.quit:
		n.count(to, statMsgsDropped)
	default:
		n.nodes[to].dispatch(&d.msg)
	}
	d.msg = Message{} // a free record must not pin the payload
	r := &n.recs[n.shardOf[to]]
	r.free = append(r.free, d)
}

// dispatch hands the delivery record's message to the port's handler,
// in the destination's lane, whose counters it charges.
func (nd *Node) dispatch(msg *Message) {
	n := nd.net
	if nd.down.Load() {
		if msg.Port == HeartbeatPort {
			n.count(nd.id, statHBDownDropped)
		} else {
			n.count(nd.id, statDownDropped)
		}
		return
	}
	// A heartbeat is a liveness claim; one that outlives its sender (the
	// node was killed while the beat was in flight) must never reach the
	// failure detector, or a freshly dead node looks alive for an extra
	// interval. Data messages from a dead source still deliver — they
	// left the wire while the node lived.
	if msg.Port == HeartbeatPort && n.nodes[msg.From].down.Load() {
		n.count(nd.id, statHBPostmortem)
		return
	}
	h := nd.handler(msg.Port)
	if h == nil {
		n.count(nd.id, statUnrouted)
		return
	}
	h(*msg)
}

// HeartbeatPort is the reserved port heartbeat pings arrive on.
const HeartbeatPort = "overlay.hb"

// ObserveHeartbeats installs fn as the heartbeat observer: it is
// called for every delivered heartbeat with the beat's sender and
// receiver and the virtual time of the delivery. Calls are routed
// through the clock's observation barrier — they run serialized at
// window ends in deterministic order, on one lane and on K — so the
// observer may touch shared state freely. A beat is staged as a record (the observer
// and the two node ids), so observing allocates nothing per heartbeat.
// Pass nil to remove. Failure detectors (package failure) consume
// liveness traffic through this hook.
func (n *Network) ObserveHeartbeats(fn func(from, to topology.NodeID, at time.Time)) {
	if fn == nil {
		n.hbObserver.Store(nil)
		return
	}
	rec := func(from, to int, at time.Time) { fn(topology.NodeID(from), topology.NodeID(to), at) }
	n.hbObserver.Store(&rec)
}

// Heartbeats is a running liveness-ping schedule; Stop cancels it.
type Heartbeats struct {
	net *Network
	// stopped keeps a beat that is firing from re-arming; Stop, a
	// control-context call, sets it before it cancels the pending beats.
	stopped atomic.Bool
	// beats holds each node's one event, re-armed every period by its
	// own callback.
	beats []simtime.Event
}

// HeartbeatOpts tunes StartHeartbeatsOpts.
type HeartbeatOpts struct {
	// SkipDownTargets re-targets each beat to the next *live* successor
	// in id order, the ring-stabilization analogue: a crashed receiver
	// must not black-hole its predecessor's liveness signal, or a
	// failure detector would condemn the (live) predecessor too. Off,
	// beats keep their static successor and pings to a down node count
	// hb.down_dropped.
	SkipDownTargets bool
}

// StartHeartbeats begins periodic liveness traffic: every `every` of
// clock time, each node sends a sizeKB ping to the node after it in id
// order (wrapping). Beats are counted in the hb.sent and hb.recv counters and
// charged to the usual traffic metrics. The first round fires after one
// full interval.
func (n *Network) StartHeartbeats(every time.Duration, sizeKB float64) *Heartbeats {
	return n.StartHeartbeatsOpts(every, sizeKB, HeartbeatOpts{})
}

// StartHeartbeatsOpts is StartHeartbeats with explicit options.
func (n *Network) StartHeartbeatsOpts(every time.Duration, sizeKB float64, opts HeartbeatOpts) *Heartbeats {
	hb := &Heartbeats{net: n}
	n.registerStat(statHBRecv)
	n.registerStat(statHBSent)
	onBeat := func(m Message) {
		n.count(m.To, statHBRecv)
		if ob := n.hbObserver.Load(); ob != nil {
			n.clock.ObserveRecord(simtime.Domain(m.To), *ob, int(m.From), int(m.To))
		}
	}
	for _, nd := range n.nodes {
		nd.Register(HeartbeatPort, onBeat)
	}
	hb.beats = make([]simtime.Event, len(n.nodes))
	for i, nd := range n.nodes {
		i, nd := i, nd
		ev, dom := &hb.beats[i], simtime.Domain(i)
		ev.Fn = func() {
			if hb.stopped.Load() {
				return
			}
			select {
			case <-n.quit:
				return
			default:
			}
			to := topology.NodeID((i + 1) % len(n.nodes))
			if opts.SkipDownTargets {
				for k := 1; k < len(n.nodes); k++ {
					cand := topology.NodeID((i + k) % len(n.nodes))
					if !n.nodes[cand].down.Load() {
						to = cand
						break
					}
				}
			}
			// Down nodes fall silent but keep their schedule, so a
			// re-joined node resumes beating on the next round.
			if nd.Send(to, HeartbeatPort, sizeKB, nil) == nil {
				n.count(nd.id, statHBSent)
			}
			// Each node's schedule is its own domain, so beats execute
			// shard-locally and reschedule without a barrier crossing.
			if !hb.stopped.Load() {
				n.clock.ScheduleEvent(ev, dom, dom, every)
			}
		}
		n.clock.ScheduleEvent(ev, dom, dom, every)
	}
	return hb
}

// Stop halts the heartbeat schedule: every pending beat is cancelled
// and none re-arms. Like Event.Stop it is a control-context call — no
// beat is firing while it runs. Safe to call more than once.
func (hb *Heartbeats) Stop() {
	if hb.stopped.Swap(true) {
		return
	}
	for i := range hb.beats {
		hb.beats[i].Stop()
	}
}
