package simtime

import (
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
// therefore the same fire order — emerges whether the clock executes
// events one at a time (single queue) or in parallel shard windows
// (NewVirtualSharded). Control-domain events order before node-domain
// events at the same instant, matching the sharded clock's barriers.
type VirtualClock struct {
	// drive is held by the goroutine sleeping on the clock, from its
	// call to its wake-up: concurrent sleepers take turns.
	drive sync.Mutex
	mu    sync.Mutex

	// now is the virtual offset from virtualEpoch in nanoseconds. It is
	// written under mu, at the three places the clock advances (the
	// single-queue pop, the sharded control pop, the barrier commit), and
	// atomic so Now — called on every Send, produced tuple and sink
	// delivery — reads it without the lock.
	now atomic.Int64

	// domSeq holds the per-domain schedule counters, indexed by
	// origin+1 (index 0 is the Control domain). During a parallel
	// window each shard touches only the counters of the domains it
	// owns; at barriers and in single-queue mode access is under mu.
	domSeq []uint64

	// q holds the pending control-domain events (and, in single-queue
	// mode, every event): the hierarchical timer wheel (wheelQueue),
	// or in the differential tests the binary heap it is checked
	// against.
	q eventQueue

	// wake is the sleeper's wake-up event. One per clock is enough:
	// only the holder of drive sleeps.
	wake Event

	// Sharded-mode state (empty lanes == single-queue mode); see
	// sharded.go.
	lanes     []*clockLane
	laneOf    []int32 // node domain -> lane index
	lookahead time.Duration
	inWindow  atomic.Bool
	laneDone  chan struct{}
	winLanes  []*clockLane // scratch: lanes active in the current window
	obsRuns   [][]obsEntry // scratch: the window's per-lane observation runs
	obsBuf    []obsEntry   // scratch: those runs merged

	stopped bool
}

// NewVirtual creates a virtual clock at the epoch. Its event queue is
// the hierarchical timer wheel (wheel.go): O(1) amortized
// schedule/fire, exact key order.
func NewVirtual() *VirtualClock {
	return &VirtualClock{q: newWheelQueue()}
}

// stepLocked advances the clock by one step: on a sharded clock whose
// lanes hold work due before the next control event, one parallel
// window (sharded.go); otherwise it pops the earliest control event —
// in single-queue mode, the earliest event — and runs it with mu
// released, unless it is wake, which it only reports. Called with mu
// held; returns with mu held.
func (c *VirtualClock) stepLocked(wake *Event) bool {
	if len(c.lanes) > 0 && c.runWindowLocked() {
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
			close(ln.work)
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

// nextKeyLocked mints the next event key for origin: origin+1 in the
// high bits, the domain's schedule counter in the low domainSeqBits.
// Callers hold mu (the shard window path mints keys lock-free in
// ScheduleDomain, where counter ownership is per-lane).
func (c *VirtualClock) nextKeyLocked(origin Domain) uint64 {
	i := int(origin) + 1
	for i >= len(c.domSeq) {
		c.domSeq = append(c.domSeq, 0)
	}
	k := uint64(i)<<domainSeqBits | c.domSeq[i]
	c.domSeq[i]++
	return k
}

// scheduleEventLocked enqueues ev at now+d keyed as origin's next
// event, routed to exec's queue. Callers must hold mu and must not be
// inside a parallel window (window-context scheduling goes through the
// lock-free path in ScheduleEvent).
func (c *VirtualClock) scheduleEventLocked(ev *Event, origin, exec Domain, d time.Duration) {
	if d < 0 {
		d = 0
	}
	lane := int32(-1)
	if exec >= 0 && len(c.lanes) > 0 {
		lane = c.laneOf[exec]
	}
	ev.clk, ev.at, ev.seq, ev.lane = c, time.Duration(c.now.Load())+d, c.nextKeyLocked(origin), lane
	c.pushLocked(ev)
}

// pushLocked routes ev to its queue.
func (c *VirtualClock) pushLocked(ev *Event) {
	if ev.lane >= 0 {
		c.lanes[ev.lane].q.push(ev)
	} else {
		c.q.push(ev)
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
// step whose event closed done, at that event's instant; a done closed
// before the call ends it at once. Close done from an event or before
// the call: a close from another goroutine is seen only between events.
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
	}
	c.scheduleEventLocked(wake, Control, Control, d)
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
// Control domain, and returns the Event that cancels it. Shard-context
// code (event handlers acting as a node) must use ScheduleDomain
// instead; calling AfterFunc from inside a parallel window panics,
// because the control queue is coordinator-owned during windows.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) *Event {
	if c.inWindow.Load() {
		panic("simtime: AfterFunc inside a parallel window; use ScheduleDomain with the acting node's domain")
	}
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
