package simtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// virtualEpoch is the fixed origin of every virtual timeline: runs are
// reproducible because Now() depends only on the event history, never
// on when the process started.
var virtualEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is the deterministic discrete-event clock. See the
// package documentation for who runs its events.
//
// Events are keyed by (timestamp, origin domain, per-domain sequence):
// the key is a pure function of the event history of the scheduling
// domain, not of global scheduling order, so the same key set — and
// therefore the same fire order — emerges whether the node domains run
// on one lane or on K parallel ones (NewVirtualSharded). Control-domain
// events order before node-domain events at the same instant: they run
// at the barriers between windows.
type VirtualClock struct {
	// drive is held by the goroutine sleeping on the clock, from its
	// call to its wake-up: concurrent sleepers take turns.
	drive sync.Mutex
	// mu guards the control queue, the control counter and the
	// barrier's bookkeeping. A window runs without it.
	mu sync.Mutex

	// now is the virtual offset from virtualEpoch in nanoseconds,
	// atomic so Now reads it without the lock. A control pop and a
	// barrier advance it, and so does each event of a one-lane window.
	now atomic.Int64

	// cut is the end of the running window: a lane stops before its
	// first event at or after it. A control event scheduled during a
	// one-lane window lowers it to the event's instant.
	cut atomic.Int64

	// ctlSeq is the Control domain's schedule counter, under mu; doms
	// holds each node domain's, owned by its lane during a window.
	ctlSeq uint64
	doms   []domState

	// q holds the pending control-domain events.
	q *wheelQueue

	// wake is the sleeper's wake-up event. One per clock is enough:
	// only the holder of drive sleeps.
	wake Event

	// lanes run the node domains: one, drained by the sleeper itself,
	// or K with a worker goroutine each (sharded.go).
	lanes     []*clockLane
	lookahead time.Duration
	inWindow  atomic.Bool
	laneDone  chan struct{}
	winLanes  []*clockLane // scratch: lanes active in the current window
	obsRuns   [][]obsEntry // scratch: the window's per-lane observation runs
	obsBuf    []obsEntry   // scratch: those runs merged
	barrier   []func()     // run at every window's end; see OnBarrier

	stopped bool
}

// domState is one node domain's schedule counter and the lane that
// runs its events.
type domState struct {
	seq  uint64
	lane int32
}

// NewVirtual creates a virtual clock at the epoch with one lane. Both
// of its queues are hierarchical timer wheels (wheel.go): O(1)
// amortized schedule/fire, exact key order.
func NewVirtual() *VirtualClock {
	c := &VirtualClock{q: newWheelQueue(), lookahead: math.MaxInt64}
	c.lanes = []*clockLane{{c: c, q: newWheelQueue(), solo: true}}
	return c
}

// stepLocked advances the clock by one step: one window, when a lane
// holds work due before the next control event (sharded.go); otherwise
// it pops the earliest control event and runs it with mu released,
// unless it is wake, which it only reports. Called with mu held;
// returns with mu held.
func (c *VirtualClock) stepLocked(wake *Event) bool {
	if c.runWindowLocked() {
		return false
	}
	ev := c.q.popMin()
	c.advanceLocked(ev.at)
	if ev == wake {
		return true
	}
	c.mu.Unlock()
	ev.Fn()
	c.mu.Lock()
	return false
}

// pendingLocked counts scheduled, unfired events across every queue.
func (c *VirtualClock) pendingLocked() int {
	n := c.q.len()
	for _, ln := range c.lanes {
		n += ln.q.len()
	}
	return n
}

// Stop shuts the clock down: pending events never fire, a sleep in
// progress returns after its current step, later sleeps return at once,
// and a sharded clock's lane workers exit.
func (c *VirtualClock) Stop() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		for _, ln := range c.lanes {
			if ln.work != nil {
				close(ln.work)
			}
		}
	}
	c.mu.Unlock()
}

// Register does nothing. It, Unregister and Drive are kept only because
// the frozen benchmark harness still calls them; the clock has no actors
// to register.
func (c *VirtualClock) Register() {}

// Unregister does nothing; see Register.
func (c *VirtualClock) Unregister() {}

// Drive returns Stop; see Register.
func (c *VirtualClock) Drive() (release func()) { return c.Stop }

// advanceLocked moves the clock forward to at; it never moves back.
// Callers hold mu.
func (c *VirtualClock) advanceLocked(at time.Duration) {
	if int64(at) > c.now.Load() {
		c.now.Store(int64(at))
	}
}

// Now returns the current virtual time. It takes no lock, so any
// goroutine may call it while a sleeper advances the clock; successive
// calls never go backwards.
func (c *VirtualClock) Now() time.Time {
	return virtualEpoch.Add(time.Duration(c.now.Load()))
}

// Since returns the virtual time elapsed since t.
func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// key mints origin's next event key: origin+1 in the high bits, the
// domain's schedule counter in the low domainSeqBits.
func (c *VirtualClock) key(origin Domain) uint64 {
	if origin < 0 {
		k := c.ctlSeq
		c.ctlSeq++
		return k
	}
	ds := c.domain(origin)
	k := uint64(origin+1)<<domainSeqBits | ds.seq
	ds.seq++
	return k
}

// domain returns node domain d's state. A one-lane clock grows the
// table on first use; a sharded clock's spans its lane map, and a
// domain outside it panics.
func (c *VirtualClock) domain(d Domain) *domState {
	if int(d) >= len(c.doms) {
		if len(c.lanes) > 1 {
			panic(fmt.Sprintf("simtime: node domain %d outside the %d-domain lane map", d, len(c.doms)))
		}
		c.doms = append(c.doms, make([]domState, int(d)+1-len(c.doms))...)
	}
	return &c.doms[d]
}

// laneOf returns the lane that runs exec's events, -1 for the control
// queue.
func (c *VirtualClock) laneOf(exec Domain) int32 {
	if exec < 0 {
		return -1
	}
	return c.domain(exec).lane
}

// scheduleLocked enqueues ev at now+d, keyed as origin's next event,
// in exec's queue. Callers hold mu.
func (c *VirtualClock) scheduleLocked(ev *Event, origin, exec Domain, d time.Duration) {
	ev.clk, ev.at, ev.seq, ev.lane = c, time.Duration(c.now.Load())+d, c.key(origin), c.laneOf(exec)
	c.pushLocked(ev)
}

// pushLocked routes ev to its queue. A control event lowers the
// running window's cut to its instant.
func (c *VirtualClock) pushLocked(ev *Event) {
	if ev.lane >= 0 {
		c.lanes[ev.lane].q.push(ev)
		return
	}
	c.q.push(ev)
	if int64(ev.at) < c.cut.Load() {
		c.cut.Store(int64(ev.at))
	}
}

// removeLocked cancels ev wherever it lives.
func (c *VirtualClock) removeLocked(ev *Event) bool {
	if ev.lane >= 0 {
		return c.lanes[ev.lane].q.remove(ev)
	}
	return c.q.remove(ev)
}

// Sleep advances the clock by d, running every event due before the
// caller's wake-up on the calling goroutine. The wake-up is an ordinary
// control event: events at the same instant as it but behind it in key
// order fire only when someone sleeps again.
func (c *VirtualClock) Sleep(d time.Duration) { c.SleepOrDone(d, nil) }

// SleepOrDone is Sleep that also ends, reporting true, right after the
// step that closed done: after the control event that closed it, at
// that event's instant, or at the end of the window whose node event
// did. A done closed before the call ends it at once. Close done from
// an event or before the call: a close from another goroutine is seen
// only between steps.
func (c *VirtualClock) SleepOrDone(d time.Duration, done <-chan struct{}) bool {
	if isClosed(done) {
		return true
	}
	if d <= 0 {
		return false
	}
	c.drive.Lock()
	defer c.drive.Unlock()
	// mu is not deferred: the step releases it while an event runs, and an
	// event's panic must reach the caller, not an unlock of an unlocked
	// mutex.
	c.mu.Lock()
	wake := &c.wake
	if wake.where != evIdle {
		// Still queued: an event's panic cut the last sleep short.
		c.removeLocked(wake)
		c.inWindow.Store(false)
	}
	c.scheduleLocked(wake, Control, Control, d)
	doneFired := false
	for !c.stopped && !doneFired {
		if c.stepLocked(wake) {
			c.mu.Unlock()
			return false
		}
		doneFired = isClosed(done)
	}
	c.removeLocked(wake)
	c.mu.Unlock()
	return doneFired
}

// isClosed reports whether done has fired; a nil done never has.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// AfterFunc schedules fn to run after d of virtual time, keyed to the
// Control domain, and returns the Event that cancels it. Node code on a
// sharded clock must use ScheduleDomain with its own domain instead:
// AfterFunc inside its windows panics.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) *Event {
	return c.ScheduleDomain(Control, Control, d, fn)
}

// ScheduleDomain is ScheduleEvent on a fresh Event that runs fn — the
// one allocation a fire-and-forget schedule costs — returned as the
// handle that cancels it.
func (c *VirtualClock) ScheduleDomain(origin, exec Domain, d time.Duration, fn func()) *Event {
	ev := &Event{Fn: fn}
	c.ScheduleEvent(ev, origin, exec, d)
	return ev
}

// PendingEvents returns the number of scheduled, unfired events —
// diagnostic surface for tests and scenario reports.
func (c *VirtualClock) PendingEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingLocked()
}
