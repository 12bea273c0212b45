package simtime

import (
	"fmt"
	"math"
	"time"
)

// Every clock runs its node domains on lanes, each backed by its own
// timer wheel: one on NewVirtual's clock, K on NewVirtualSharded's. A
// sleeper's steps alternate between two phases:
//
//   - Barrier: control-domain events fire one at a time on the sleeping
//     goroutine whenever the earliest pending control event is no later
//     than the earliest pending lane event. The sleeper's own wake-up,
//     and so its code between sleeps, only ever comes up here.
//   - Window: otherwise every lane with work before the window's end
//     drains it in event-key order, without the clock mutex. One lane,
//     drained by the sleeper itself, runs up to the next control event,
//     and a control event scheduled meanwhile cuts the window at its
//     instant. K lanes run in parallel on worker goroutines up to
//     min(tCtl, tLane+L), L being the minimum cross-lane latency.
//
// Cross-lane events created inside a window cannot land before the
// window end (their delay is at least L by construction of L), so they
// are staged in per-lane outboxes and merged into the destination
// queues at the barrier; a violation panics rather than silently
// breaking causality. Because event keys — (timestamp, origin,
// per-origin sequence) — are minted per domain and each domain executes
// serially in key order on any number of lanes, the key set and all
// key-ordered artifacts are identical whatever the lane count and
// however goroutines interleave: that is the bit-identity contract the
// differential tests pin down.
type clockLane struct {
	c    *VirtualClock
	idx  int32
	solo bool // the clock's only lane: it publishes each event's instant as now
	q    *wheelQueue

	// now/curKey describe the event the lane is currently executing;
	// read by ScheduleEvent/DomainNow/Observe from the same goroutine,
	// so no synchronization is needed.
	now    time.Duration
	curKey uint64

	outbox []*Event   // cross-lane events staged until the barrier
	obs    []obsEntry // deferred observations staged until the barrier
	obsIdx uint64

	work chan struct{} // window signals from the coordinator; nil on one lane
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

// NewVirtualSharded creates a virtual clock whose node domains
// execute on `shards` parallel lanes. laneOf maps each node domain
// (index = Domain) to its lane; lookahead is the conservative bound —
// no event executed in one lane may cause an event in another lane
// fewer than `lookahead` later (in the overlay this is the minimum
// cross-node message latency). With shards <= 1 or a non-positive
// lookahead the clock keeps its one lane, which fires the identical
// event sequence.
func NewVirtualSharded(laneOf []int32, shards int, lookahead time.Duration) *VirtualClock {
	c := NewVirtual()
	c.ShardLanes(laneOf, shards, lookahead)
	return c
}

// ShardLanes moves a one-lane clock's node domains onto `shards`
// parallel lanes. It exists for harnesses whose lane map is only known
// after the clock has started (the overlay's shard regions derive from
// an optimizer environment that is itself built under the clock). It
// panics while a node-domain event is pending, since that event would
// sit outside its new lane's order; pending control events are
// unaffected. Shards <= 1 or a non-positive lookahead leave one lane.
func (c *VirtualClock) ShardLanes(laneOf []int32, shards int, lookahead time.Duration) {
	if shards <= 1 || lookahead <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lanes) > 1 {
		panic("simtime: ShardLanes on an already-sharded clock")
	}
	if n := c.lanes[0].q.len(); n > 0 {
		panic(fmt.Sprintf("simtime: ShardLanes with %d node-domain events pending", n))
	}
	// The window path indexes doms lock-free, so it must span every node
	// domain up front; counters already minted stay intact.
	c.doms = append(c.doms, make([]domState, max(len(laneOf)-len(c.doms), 0))...)
	for i, l := range laneOf {
		if l < 0 || int(l) >= shards {
			panic(fmt.Sprintf("simtime: laneOf[%d] = %d out of range [0,%d)", i, l, shards))
		}
		c.doms[i].lane = l
	}
	c.lookahead = lookahead
	c.laneDone = make(chan struct{}, shards)
	c.lanes = make([]*clockLane, shards)
	for i := range c.lanes {
		ln := &clockLane{c: c, idx: int32(i), q: newWheelQueue(), work: make(chan struct{})}
		c.lanes[i] = ln
		go ln.loop()
	}
}

// Shards reports the number of lanes.
func (c *VirtualClock) Shards() int { return len(c.lanes) }

// OnBarrier registers fn to run after every window, once its staged
// events and observations are committed and while no event runs, on
// the sleeping goroutine. Code that keeps per-lane state rebalances or
// audits it there.
func (c *VirtualClock) OnBarrier(fn func()) {
	c.mu.Lock()
	c.barrier = append(c.barrier, fn)
	c.mu.Unlock()
}

// runWindowLocked runs one window and reports true, unless the next
// control event is due no later than every lane event: then it reports
// false and leaves that event to the caller's control step. Called
// from stepLocked with mu held; returns with mu held.
func (c *VirtualClock) runWindowLocked() bool {
	const inf = time.Duration(math.MaxInt64)
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

	end := tCtl
	if tLane < tCtl-c.lookahead {
		end = tLane + c.lookahead
	}
	c.winLanes = c.winLanes[:0]
	for _, ln := range c.lanes {
		if ln.q.len() > 0 && ln.q.peekMin().at < end {
			c.winLanes = append(c.winLanes, ln)
		}
	}
	c.cut.Store(int64(end))
	c.inWindow.Store(true)
	c.mu.Unlock()
	if len(c.lanes) == 1 {
		c.lanes[0].runWindow()
	} else {
		for _, ln := range c.winLanes {
			ln.work <- struct{}{}
		}
		for range c.winLanes {
			<-c.laneDone
		}
	}
	c.mu.Lock()
	c.inWindow.Store(false)

	// Barrier: commit the window. Advance the clock to the latest
	// executed instant, deliver staged cross-lane events, then run the
	// deferred observations, the lanes' runs merged into key order, and
	// the barrier hooks (with mu released — they may use the clock).
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
	if len(c.obsRuns) == 0 && len(c.barrier) == 0 {
		return true
	}
	obs, hooks := mergeObs(c.obsBuf[:0], c.obsRuns), c.barrier
	clear(c.obsRuns)
	c.mu.Unlock()
	for i := range obs {
		obs[i].run()
	}
	for _, fn := range hooks {
		fn()
	}
	c.mu.Lock()
	clear(obs)
	c.obsBuf = obs[:0]
	return true
}

// loop is a lane worker of a sharded clock: drain one window per
// coordinator signal.
func (ln *clockLane) loop() {
	for range ln.work {
		ln.runWindow()
		ln.c.laneDone <- struct{}{}
	}
}

// runWindow executes every lane event before the window's cut, in
// exact key order. Events scheduled into the same lane during the
// window join it (the loop re-peeks each iteration), so a lane never
// leaves work behind that a strict one-at-a-time order would have run.
// The cut is re-read per event: a control event scheduled meanwhile
// may have lowered it. An event's Fn may re-arm or recycle it, so
// nothing reads ev after the call.
func (ln *clockLane) runWindow() {
	c := ln.c
	for ln.q.len() > 0 {
		ev := ln.q.peekMin()
		if int64(ev.at) >= c.cut.Load() {
			break
		}
		ln.q.popMin()
		ln.now, ln.curKey = ev.at, ev.seq
		if ln.solo {
			c.now.Store(int64(ev.at))
		}
		ev.Fn()
	}
}

// ScheduleEvent schedules the caller-owned ev at now+d, keyed as
// origin's next event and executed in exec's lane; see Event for the
// ownership contract. Inside a window, a node-origin schedule must come
// from origin's own lane (every call site acts as the origin node) and
// takes no lock: same-lane events go straight into the lane's queue,
// cross-lane events are staged in the outbox for barrier delivery, and
// on one lane a control-queue event is pushed under the mutex and cuts
// the window. A Control-origin schedule takes the clock mutex; inside
// a window of a sharded clock it panics.
func (c *VirtualClock) ScheduleEvent(ev *Event, origin, exec Domain, d time.Duration) {
	if ev.where != evIdle {
		panic("simtime: Event scheduled while still pending; re-arm it only after it fired or was stopped")
	}
	if d < 0 {
		d = 0
	}
	if c.inWindow.Load() {
		if origin >= 0 {
			c.scheduleInWindow(ev, origin, exec, d)
			return
		}
		if len(c.lanes) > 1 {
			panic("simtime: control-domain schedule inside a parallel window; use ScheduleDomain with the acting node's domain")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scheduleLocked(ev, origin, exec, d)
}

// scheduleInWindow is ScheduleEvent for node code running on origin's
// lane inside a window.
func (c *VirtualClock) scheduleInWindow(ev *Event, origin, exec Domain, d time.Duration) {
	ln := c.lanes[c.domain(origin).lane]
	ev.clk, ev.at, ev.seq = c, ln.now+d, c.key(origin)
	ev.lane = c.laneOf(exec)
	switch {
	case ev.lane == ln.idx:
		ln.q.push(ev)
	case ln.solo: // the control queue, which the lane does not own
		c.mu.Lock()
		c.pushLocked(ev)
		c.mu.Unlock()
	case int64(ev.at) < c.cut.Load(): // on K lanes the cut stays at the window's end
		panic(fmt.Sprintf("simtime: cross-shard event at %v violates the lookahead window ending %v", ev.at, time.Duration(c.cut.Load())))
	default:
		ev.where = evStaged
		ln.outbox = append(ln.outbox, ev)
	}
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
// order — the order a strict one-at-a-time run would have produced
// them in: each lane stages its observations in that order already, and the
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
// a window, nil when observations run inline.
func (c *VirtualClock) windowLane(origin Domain) *clockLane {
	if !c.inWindow.Load() || origin < 0 {
		return nil
	}
	return c.lanes[c.domain(origin).lane]
}

// stage queues o, stamped with the executing event, until the barrier.
func (ln *clockLane) stage(o obsEntry) {
	o.at, o.key, o.idx = ln.now, ln.curKey, ln.obsIdx
	ln.obsIdx++
	ln.obs = append(ln.obs, o)
}
