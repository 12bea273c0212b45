// Live migration: the data-plane half of the SBON's continuous
// re-optimization story. The control plane (optimizer.Reoptimizer.Plan)
// decides that a running service should move; Engine.Migrate executes
// the move under traffic with zero tuple loss:
//
//	T0 (start)    — a buffering handler opens on the target's port, the
//	                circuit's routes flip so upstream tuples flow to the
//	                target (and queue there), and the operator's state
//	                is shipped old→new as a charged overlay message.
//	T1 (cutover)  — after every pre-flip in-flight tuple has drained to
//	                the old host, the operator re-registers on the
//	                target, the buffered tuples replay through it in
//	                arrival order, and the old host's port becomes a
//	                forwarder for stragglers.
//	T2 (teardown) — after a second drain window nothing can reach the
//	                old host; the forwarder unregisters and the
//	                migration completes.
//
// Every phase boundary is a clock event, so an entire churn scenario —
// including its migrations — is deterministic and bit-reproducible for
// a fixed seed.
//
// Loss argument: a tuple sent before T0 reaches the old host no later
// than T0+maxUpstreamLatency ≤ T1 and is processed there; a tuple sent
// after T0 reaches the target and is either buffered (before T1) or
// processed live (after). A straggler that still lands on the old host
// after cutover (possible only under injected latency jitter) is
// forwarded. Message reordering across the cutover boundary is limited to
// buffered-vs-forwarded interleaving; no path drops a tuple.
package stream

import (
	"fmt"
	"sync"
	"time"

	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// migrationMargin is the extra drain slack added to each phase, in
// simulated milliseconds, covering same-instant event ties.
const migrationMargin = 1.0

// Migration is one in-flight (or completed) service handoff.
type Migration struct {
	Query   query.QueryID
	Service int
	From    topology.NodeID
	To      topology.NodeID
	// StateKB is the operator state shipped to the new host, charged to
	// the overlay like any other traffic.
	StateKB float64
	// StartedAt is the clock time routes flipped; ScheduledEnd is the
	// precomputed completion instant, letting a coordinator sleep
	// deterministically through a settle.
	StartedAt    time.Time
	ScheduledEnd time.Time

	// Buffered counts tuples queued at the target during handoff;
	// Forwarded counts stragglers redirected off the old host after
	// cutover. Valid once Done is closed.
	Buffered  int
	Forwarded int
	// Aborted marks a migration cancelled by circuit teardown before it
	// completed.
	Aborted bool

	engine    *Engine
	running   *Running
	rt        *svcRuntime
	buf       *migBuffer
	fwd       int // stragglers forwarded so far, by the old host's lane
	cutoverAt time.Time
	cutTimer  *simtime.Event
	tearTimer *simtime.Event
	done      chan struct{}
	doneOnce  sync.Once
	sp        trace.Span
}

// Done is closed when the migration has fully completed (or been
// cancelled by teardown — check Aborted).
func (m *Migration) Done() <-chan struct{} { return m.done }

// CutoverAt returns the clock time the operator switched hosts (zero
// until cutover).
func (m *Migration) CutoverAt() time.Time { return m.cutoverAt }

// migBuffer queues tuples arriving at the target before cutover. The
// target's lane appends; cutover and abort, control events, drain it
// while no lane runs.
type migBuffer struct {
	msgs   []overlay.Message
	closed bool
}

// statePortSuffix names the side-channel port operator state ships on.
const statePortSuffix = ".state"

// Migrate moves a running operator service to a new host while the
// circuit executes. It returns immediately; the handoff advances on
// clock events and finishes at ScheduledEnd (observe Done to block, or
// sleep the clock past ScheduledEnd for deterministic settles).
//
// Only operator services migrate: producers and the consumer are pinned,
// reused services move with their owning circuit (the migration of a
// shared instance re-routes every subscriber at cutover), and a service
// already mid-handoff is refused until its previous migration tears
// down. The source host must be alive; draining a node
// therefore has to happen before the node is marked down, which is
// exactly the order the adaptation layer enforces.
func (e *Engine) Migrate(id query.QueryID, svc int, to topology.NodeID) (*Migration, error) {
	return e.MigrateUnder(trace.Span{}, id, svc, to)
}

// MigrateUnder is Migrate with the handoff's trace span nested under
// parent (the adaptation layer passes its sweep span, so Perfetto
// renders each migration inside the round that planned it). An inert
// parent yields a root span, exactly as Migrate.
func (e *Engine) MigrateUnder(parent trace.Span, id query.QueryID, svc int, to topology.NodeID) (*Migration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.running[id]
	if !ok {
		return nil, fmt.Errorf("stream: query %d: %w", id, ErrNotRunning)
	}
	if svc < 0 || svc >= len(r.svcs) {
		return nil, fmt.Errorf("stream: query %d has no service %d", id, svc)
	}
	if r.Circuit.Services[svc].Reused {
		return nil, fmt.Errorf("stream: query %d service %d reuses a shared instance; migrate it through its owning circuit", id, svc)
	}
	rt := &r.svcs[svc]
	if rt.operator == nil {
		return nil, fmt.Errorf("stream: query %d service %d is not a migratable operator", id, svc)
	}
	if rt.migrating {
		return nil, fmt.Errorf("stream: query %d service %d is already migrating", id, svc)
	}
	from := topology.NodeID(r.host[svc].Load())
	if to == from {
		return nil, fmt.Errorf("stream: query %d service %d is already on node %d", id, svc, to)
	}
	if int(to) < 0 || int(to) >= e.topo.NumNodes() {
		return nil, fmt.Errorf("stream: migration target %d out of range", to)
	}
	if e.net.NodeDown(to) {
		return nil, fmt.Errorf("stream: migration target %d is down", to)
	}
	if e.net.NodeDown(from) {
		return nil, fmt.Errorf("stream: migration source %d is down (drain before kill)", from)
	}

	// Drain windows, in simulated milliseconds. Cutover must outlast
	// both the slowest in-flight upstream tuple and the state transfer.
	maxUp := 0.0
	for _, l := range r.Circuit.Links {
		if l.To != svc {
			continue
		}
		upHost := topology.NodeID(r.host[l.From].Load())
		if lat := e.topo.Latency(upHost, from); lat > maxUp {
			maxUp = lat
		}
	}
	stateLat := e.topo.Latency(from, to)
	cutMs := maxUp + migrationMargin
	if stateLat+migrationMargin > cutMs {
		cutMs = stateLat + migrationMargin
	}
	tearMs := maxUp + migrationMargin
	cutDelay := time.Duration(cutMs * float64(time.Millisecond))
	tearDelay := time.Duration(tearMs * float64(time.Millisecond))

	now := e.clock.Now()
	m := &Migration{
		Query:        id,
		Service:      svc,
		From:         from,
		To:           to,
		StateKB:      rt.operator.StateSizeKB(),
		StartedAt:    now,
		ScheduledEnd: now.Add(cutDelay + tearDelay),
		engine:       e,
		running:      r,
		rt:           rt,
		buf:          &migBuffer{},
		done:         make(chan struct{}),
	}
	rt.migrating = true
	// The span opens at T0 and closes at T2 (or cancel), with the T1
	// cutover marked by an instant event inside it.
	if parent.Active() {
		m.sp = parent.Child("engine", "migration",
			trace.Int("q", int(id)), trace.Int("svc", svc),
			trace.Int("from", int(from)), trace.Int("to", int(to)),
			trace.Num("state_kb", m.StateKB))
	} else {
		m.sp = e.cfg.Tracer.Begin("engine", "migration",
			trace.Int("q", int(id)), trace.Int("svc", svc),
			trace.Int("from", int(from)), trace.Int("to", int(to)),
			trace.Num("state_kb", m.StateKB))
	}

	// T0: open the buffer on the target, flip the route, ship state.
	buf := m.buf
	e.net.Node(to).Register(rt.port, func(msg overlay.Message) {
		if buf.closed {
			// Cutover already happened: process live instead of queueing
			// into a drained buffer.
			rt.handler(msg)
			return
		}
		buf.msgs = append(buf.msgs, msg)
	})
	r.route[svc].Store(int32(to))
	statePort := rt.port + statePortSuffix
	e.net.Node(to).Register(statePort, func(overlay.Message) {})
	_ = e.net.Node(from).Send(to, statePort, m.StateKB, nil)
	r.lanes.Add(e.net.ShardOf(from), laneUsageKBms, m.StateKB*stateLat)

	m.cutTimer = e.clock.AfterFunc(cutDelay, m.cutover)
	r.migs = append(r.migs, m)
	return m, nil
}

// cutover is the T1 phase event: move the operator to the target, replay
// the buffer, and leave a straggler forwarder on the old host. The whole
// phase runs under the engine mutex: a concurrent Engine.Stop/Close
// holds that mutex through teardownLocked, so cutover either completes
// before the circuit's ports disappear or observes the closed stop
// channel and does nothing — it can never re-register handlers behind a
// teardown.
func (m *Migration) cutover() {
	e, r, rt := m.engine, m.running, m.rt
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-r.stop:
		return // circuit tore down first; cancel() settles the record
	default:
	}

	// The old host's port becomes a forwarder: anything still arriving
	// there chases the service to its current route. Register replaces
	// the operator handler atomically, so no arrival can fall between
	// handlers.
	from, svc := m.From, m.Service
	lane := e.net.ShardOf(from)
	e.net.Node(from).Register(rt.port, func(msg overlay.Message) {
		dst := topology.NodeID(r.route[svc].Load())
		m.fwd++
		r.lanes.Add(lane, laneUsageKBms, msg.SizeKB*e.topo.Latency(from, dst))
		_ = e.net.Node(from).SendData(dst, rt.port, msg.SizeKB, msg.Data)
	})

	// Execution moves: emissions now originate from the target.
	r.host[svc].Store(int32(m.To))
	// A shared service flips for every subscriber at the same instant:
	// each consumer circuit's view of the reused service follows the
	// host, atomically under the engine mutex, so no subscriber ever
	// observes the instance on the old node after cutover.
	for _, t := range rt.taps {
		t.consumer.route[t.svc].Store(int32(m.To))
		t.consumer.host[t.svc].Store(int32(m.To))
	}

	// Install the live handler, then replay the queue in buffer order.
	// Cutover is a control event, so no tuple arrives meanwhile.
	e.net.Node(m.To).Register(rt.port, rt.handler)
	queued := m.buf.msgs
	m.buf.msgs = nil
	m.buf.closed = true
	m.Buffered = len(queued)
	for _, msg := range queued {
		rt.handler(msg)
	}
	e.net.Node(m.To).Unregister(rt.port + statePortSuffix)
	m.cutoverAt = e.clock.Now()
	m.sp.Emit("cutover", trace.Int("buffered", m.Buffered))

	m.tearTimer = e.clock.AfterFunc(m.ScheduledEnd.Sub(m.cutoverAt), m.teardown)
}

// teardown is the T2 phase event: the forwarder retires and the
// migration completes. Like cutover it runs under the engine mutex to
// serialize against Stop/Close.
func (m *Migration) teardown() {
	e, r := m.engine, m.running
	e.mu.Lock()
	select {
	case <-r.stop:
		e.mu.Unlock()
		return
	default:
	}
	e.net.Node(m.From).Unregister(m.rt.port)
	m.Forwarded = m.fwd
	m.rt.migrating = false
	e.mu.Unlock()
	m.sp.End(trace.Str("outcome", "done"),
		trace.Int("buffered", m.Buffered), trace.Int("forwarded", m.Forwarded))
	m.doneOnce.Do(func() { close(m.done) })
}

// cancel aborts an in-flight migration during circuit teardown: phase
// timers stop, side registrations are released, and waiters unblock.
func (m *Migration) cancel() {
	if m.cutTimer != nil {
		m.cutTimer.Stop()
	}
	if m.tearTimer != nil {
		m.tearTimer.Stop()
	}
	select {
	case <-m.done:
		return // already complete
	default:
	}
	m.Aborted = true
	m.Forwarded = m.fwd
	e := m.engine
	e.net.Node(m.To).Unregister(m.rt.port + statePortSuffix)
	// Whichever of old/new host is not the current registration owner
	// still holds a buffer or forwarder handler; drop both — the whole
	// circuit is going away.
	e.net.Node(m.From).Unregister(m.rt.port)
	e.net.Node(m.To).Unregister(m.rt.port)
	m.rt.migrating = false
	m.sp.End(trace.Str("outcome", "cancelled"), trace.Int("forwarded", m.Forwarded))
	m.doneOnce.Do(func() { close(m.done) })
}
