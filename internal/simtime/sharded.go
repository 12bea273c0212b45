package simtime

import (
	"fmt"
	"time"
)

// Sharded data-plane execution.
//
// NewVirtualSharded splits the node domains across K lanes, each backed
// by its own timer wheel and executed by its own worker goroutine. A
// sleeper's steps alternate between two phases:
//
//   - Barrier: control-domain events fire one at a time on the sleeping
//     goroutine, exactly as in single-queue mode, whenever the earliest
//     pending control event is no later than the earliest pending lane
//     event. The sleeper's own wake-up, and so its code between sleeps,
//     only ever comes up here.
//   - Window: otherwise the clock opens the conservative lookahead
//     window [tLane, min(tCtl, tLane+L)) — L is the minimum cross-lane
//     message latency — and every lane with work below the window end
//     drains it in parallel, each lane strictly in event-key order.
//
// Cross-lane events created inside a window cannot land before the
// window end (their delay is at least L by construction of L), so they
// are staged in per-lane outboxes and merged into the destination
// queues at the barrier; a violation panics rather than silently
// breaking causality. Because event keys — (timestamp, origin,
// per-origin sequence) — are minted per domain and each domain executes
// serially in key order in both modes, the key set and all
// key-ordered artifacts are identical to a single-queue run regardless
// of how goroutines interleave: that is the bit-identity contract the
// differential tests pin down.
type clockLane struct {
	c   *VirtualClock
	idx int32
	q   eventQueue

	// now/curKey describe the event the lane worker is currently
	// executing; read by ScheduleEvent/DomainNow/Observe from that
	// same worker, so no synchronization is needed.
	now    time.Duration
	curKey uint64
	curEnd time.Duration // current window end, for the causality check

	outbox []*Event   // cross-lane events staged until the barrier
	obs    []obsEntry // deferred observations staged until the barrier
	obsIdx uint64

	work chan time.Duration // window-end signals from the coordinator
}

// obsEntry is one deferred observation, ordered at the barrier by
// (event time, event key, emission index within the lane). It is either
// a closure (fn) or a record: rec, a callback that outlives the
// observation, with the two integers it is called on. Both kinds share
// the lane's one staging slice, so an event that emits one of each keeps
// their emission order.
type obsEntry struct {
	at   time.Duration
	key  uint64
	idx  uint64
	fn   func(at time.Time)
	rec  func(a, b int, at time.Time)
	a, b int
}

func (o *obsEntry) before(p *obsEntry) bool {
	if o.at != p.at {
		return o.at < p.at
	}
	if o.key != p.key {
		return o.key < p.key
	}
	return o.idx < p.idx
}

func (o *obsEntry) run() {
	at := virtualEpoch.Add(o.at)
	if o.rec != nil {
		o.rec(o.a, o.b, at)
		return
	}
	o.fn(at)
}

// mergeObs appends the runs' entries to dst in (at, key, idx) order,
// consuming the runs. Each run is already in that order — a lane executes
// its events in key order and numbers its observations as it goes — so
// this is a merge, and with at most one run per lane a linear scan for
// the smallest head beats a heap. A drained slot is cleared, so that the
// lane's recycled staging slice pins no closure.
func mergeObs(dst []obsEntry, runs [][]obsEntry) []obsEntry {
	for {
		first := -1
		for i, r := range runs {
			if len(r) > 0 && (first < 0 || r[0].before(&runs[first][0])) {
				first = i
			}
		}
		if first < 0 {
			return dst
		}
		r := runs[first]
		dst = append(dst, r[0])
		r[0] = obsEntry{}
		runs[first] = r[1:]
	}
}

// NewVirtualSharded creates a virtual clock whose node domains execute
// on `shards` parallel lanes. laneOf maps each node domain (index =
// Domain) to its lane; lookahead is the conservative bound — no event
// executed in one lane may cause an event in another lane fewer than
// `lookahead` later (in the overlay this is the minimum cross-node
// message latency). With shards <= 1 or a non-positive lookahead the
// clock degenerates to the single-queue scheduler, which fires the
// identical event sequence.
func NewVirtualSharded(laneOf []int32, shards int, lookahead time.Duration) *VirtualClock {
	c := NewVirtual()
	c.ShardLanes(laneOf, shards, lookahead)
	return c
}

// ShardLanes converts a single-queue clock to sharded execution. It
// exists for harnesses whose lane map is only known after the clock has
// started (the overlay's shard regions derive from an optimizer
// environment that is itself built under the clock): create the clock,
// run the setup phase, then install the lanes. It must be called before
// any node-domain event is scheduled — pending control events are
// unaffected, but a node event already sitting in the control queue
// would escape its lane's ordering. Shards <= 1 or a non-positive
// lookahead leave the clock in single-queue mode.
func (c *VirtualClock) ShardLanes(laneOf []int32, shards int, lookahead time.Duration) {
	if shards <= 1 || lookahead <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lanes) > 0 {
		panic("simtime: ShardLanes on an already-sharded clock")
	}
	c.laneOf = make([]int32, len(laneOf))
	for i, l := range laneOf {
		if l < 0 || int(l) >= shards {
			panic(fmt.Sprintf("simtime: laneOf[%d] = %d out of range [0,%d)", i, l, shards))
		}
		c.laneOf[i] = l
	}
	// The window path indexes domSeq lock-free, so it must span every
	// node domain up front; counters already minted stay intact.
	for len(c.domSeq) < len(laneOf)+1 {
		c.domSeq = append(c.domSeq, 0)
	}
	c.lookahead = lookahead
	c.laneDone = make(chan struct{}, shards)
	for i := 0; i < shards; i++ {
		ln := &clockLane{c: c, idx: int32(i), q: newWheelQueue(), work: make(chan time.Duration)}
		c.lanes = append(c.lanes, ln)
		go ln.loop()
	}
}

// Shards reports the number of parallel lanes (1 in single-queue mode).
func (c *VirtualClock) Shards() int {
	if len(c.lanes) == 0 {
		return 1
	}
	return len(c.lanes)
}

// runWindowLocked runs one parallel window and reports true, unless the
// next control event is due no later than every lane event: then it
// reports false and leaves that event to the caller's control step
// (barrier semantics identical to single-queue mode). Called from
// stepLocked with mu held; returns with mu held.
func (c *VirtualClock) runWindowLocked() bool {
	const inf = time.Duration(1<<63 - 1)
	tCtl, tLane := inf, inf
	if c.q.len() > 0 {
		tCtl = c.q.peekMin().at
	}
	for _, ln := range c.lanes {
		if ln.q.len() > 0 {
			if a := ln.q.peekMin().at; a < tLane {
				tLane = a
			}
		}
	}
	if tCtl <= tLane {
		return false
	}

	end := tLane + c.lookahead
	if tCtl < end {
		end = tCtl
	}
	c.winLanes = c.winLanes[:0]
	for _, ln := range c.lanes {
		if ln.q.len() > 0 && ln.q.peekMin().at < end {
			ln.curEnd = end
			c.winLanes = append(c.winLanes, ln)
		}
	}
	c.inWindow.Store(true)
	c.mu.Unlock()
	for _, ln := range c.winLanes {
		ln.work <- end
	}
	for range c.winLanes {
		<-c.laneDone
	}
	c.mu.Lock()
	c.inWindow.Store(false)

	// Barrier: commit the window. Advance the clock to the latest
	// executed instant, deliver staged cross-lane events, then run the
	// deferred observations, the lanes' runs merged into key order (with
	// mu released — observation callbacks may use the clock).
	c.obsRuns = c.obsRuns[:0]
	for _, ln := range c.winLanes {
		c.advanceLocked(ln.now)
		for _, ev := range ln.outbox {
			c.pushLocked(ev)
		}
		ln.outbox = ln.outbox[:0]
		if len(ln.obs) > 0 {
			c.obsRuns = append(c.obsRuns, ln.obs)
			ln.obs = ln.obs[:0]
		}
	}
	if len(c.obsRuns) > 0 {
		obs := mergeObs(c.obsBuf[:0], c.obsRuns)
		clear(c.obsRuns)
		c.mu.Unlock()
		for i := range obs {
			obs[i].run()
		}
		c.mu.Lock()
		clear(obs)
		c.obsBuf = obs[:0]
	}
	return true
}

// loop is a lane worker: drain one window per coordinator signal.
func (ln *clockLane) loop() {
	for end := range ln.work {
		ln.runWindow(end)
		ln.c.laneDone <- struct{}{}
	}
}

// runWindow executes every lane event strictly before end, in exact key
// order. Events scheduled into the same lane during the window join it
// (the loop re-peeks each iteration), so a lane never leaves work
// behind that the single-queue scheduler would have run. An event's Fn
// may re-arm or recycle it, so nothing reads ev after the call.
func (ln *clockLane) runWindow(end time.Duration) {
	for ln.q.len() > 0 {
		ev := ln.q.peekMin()
		if ev.at >= end {
			break
		}
		ln.q.popMin()
		ln.now = ev.at
		ln.curKey = ev.seq
		ev.Fn()
	}
}

// ScheduleEvent schedules the caller-owned ev at now+d, keyed as
// origin's next event and executed in exec's shard; see Event for the
// ownership contract. Inside a parallel window the caller must be
// origin's lane worker (every converted call site acts as the origin
// node), and the insert is lock-free: same-lane events go straight into
// the lane's queue, cross-lane events are staged in the outbox for
// barrier delivery. Outside windows (single-queue mode, control
// callbacks, code between sleeps) the insert takes the clock mutex.
func (c *VirtualClock) ScheduleEvent(ev *Event, origin, exec Domain, d time.Duration) {
	if ev.where != evIdle {
		panic("simtime: Event scheduled while still pending; re-arm it only after it fired or was stopped")
	}
	if !c.inWindow.Load() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.scheduleEventLocked(ev, origin, exec, d)
		return
	}
	if origin < 0 || int(origin) >= len(c.laneOf) {
		panic(fmt.Sprintf("simtime: ScheduleEvent(origin=%d) inside a window: origin must be an owned node domain", origin))
	}
	ln := c.lanes[c.laneOf[origin]]
	if d < 0 {
		d = 0
	}
	i := int(origin) + 1
	key := uint64(i)<<domainSeqBits | c.domSeq[i]
	c.domSeq[i]++
	lane := int32(-1)
	if exec >= 0 {
		lane = c.laneOf[exec]
	}
	ev.clk, ev.at, ev.seq, ev.lane = c, ln.now+d, key, lane
	if lane == ln.idx {
		ln.q.push(ev)
		return
	}
	if ev.at < ln.curEnd {
		panic(fmt.Sprintf("simtime: cross-shard event at %v violates the lookahead window ending %v", ev.at, ln.curEnd))
	}
	ev.where = evStaged
	ln.outbox = append(ln.outbox, ev)
}

// DomainNow returns the current time as seen from origin's execution
// context: the lane-local event time inside a window, the global clock
// otherwise.
func (c *VirtualClock) DomainNow(origin Domain) time.Time {
	if ln := c.windowLane(origin); ln != nil {
		return virtualEpoch.Add(ln.now)
	}
	return c.Now()
}

// Observe defers fn to the end of the current window, where all
// observations run serially in (event time, event key, emission index)
// order — the exact order a single-queue run would have produced them
// in: each lane stages its observations in that order already, and the
// barrier merges the lanes' runs. Outside a window fn runs inline at the
// current clock time. This is how shard-context code feeds
// order-sensitive shared state (the tracer, detector timestamps) without
// races and without perturbing the bit-identical contract.
func (c *VirtualClock) Observe(origin Domain, fn func(at time.Time)) {
	if ln := c.windowLane(origin); ln != nil {
		ln.stage(obsEntry{fn: fn})
		return
	}
	fn(c.Now())
}

// ObserveRecord is Observe for a hot path: instead of a closure made
// per observation it stages a record — rec, a callback that outlives
// the observation, and the two integers to call it on — so observing
// allocates nothing. Records and closures share one queue and one order.
func (c *VirtualClock) ObserveRecord(origin Domain, rec func(a, b int, at time.Time), a, b int) {
	if ln := c.windowLane(origin); ln != nil {
		ln.stage(obsEntry{rec: rec, a: a, b: b})
		return
	}
	rec(a, b, c.Now())
}

// windowLane returns the lane executing origin when the caller is inside
// a parallel window, nil when observations run inline.
func (c *VirtualClock) windowLane(origin Domain) *clockLane {
	if c.inWindow.Load() && origin >= 0 && int(origin) < len(c.laneOf) {
		return c.lanes[c.laneOf[origin]]
	}
	return nil
}

// stage queues o, stamped with the executing event, until the barrier.
func (ln *clockLane) stage(o obsEntry) {
	o.at, o.key, o.idx = ln.now, ln.curKey, ln.obsIdx
	ln.obsIdx++
	ln.obs = append(ln.obs, o)
}
