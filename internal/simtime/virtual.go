package simtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// virtualEpoch is the fixed origin of every virtual timeline: runs are
// reproducible because Now() depends only on the event history, never
// on when the process started.
var virtualEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is the deterministic discrete-event implementation of
// Clock. See the package documentation for the actor contract.
//
// Events are keyed by (timestamp, origin domain, per-domain sequence):
// the key is a pure function of the event history of the scheduling
// domain, not of global scheduling order, so the same key set — and
// therefore the same fire order — emerges whether the clock executes
// events one at a time (single queue) or in parallel shard windows
// (NewVirtualSharded). Control-domain events order before node-domain
// events at the same instant, matching the sharded clock's barriers.
type VirtualClock struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes the scheduler on any state change

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

	actors   int // registered goroutines
	runnable int // registered goroutines not blocked in a clock wait
	stopped  bool

	// waiters tracks SleepOrDone sleepers by their done channel so
	// Signal can wake them synchronously with the close — the
	// deterministic cancellation path.
	waiters map[<-chan struct{}][]*sodWaiter
}

// NewVirtual creates a virtual clock at the epoch and starts its
// scheduler goroutine. Call Stop when done with the clock to release
// the scheduler. The event queue is the hierarchical timer wheel
// (wheel.go): O(1) amortized schedule/fire, exact key order.
func NewVirtual() *VirtualClock {
	return newVirtualClock(newWheelQueue())
}

func newVirtualClock(q eventQueue) *VirtualClock {
	c := &VirtualClock{q: q}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// run is the scheduler loop: whenever at least one actor is registered,
// all actors are blocked, and an event is pending, advance. In
// single-queue mode that means popping the earliest event, jumping the
// clock to its timestamp, and firing it; in sharded mode control events
// still fire one at a time but node-domain events execute in parallel
// lookahead windows (runWindowLocked, sharded.go).
func (c *VirtualClock) run() {
	c.mu.Lock()
	for {
		for !c.stopped && !(c.actors > 0 && c.runnable == 0 && c.pendingLocked() > 0) {
			c.cond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		if len(c.lanes) == 0 {
			ev := c.q.popMin()
			c.advanceLocked(ev.at)
			c.mu.Unlock()
			ev.Fn()
			c.mu.Lock()
			continue
		}
		c.stepShardedLocked()
	}
}

// pendingLocked counts scheduled, unfired events across every queue.
func (c *VirtualClock) pendingLocked() int {
	n := c.q.len()
	for _, ln := range c.lanes {
		n += ln.q.len()
	}
	return n
}

// Stop shuts the scheduler down. Pending events never fire and blocked
// sleepers are never woken, so stop only once every registered actor
// has unregistered (tests typically defer Stop alongside Unregister).
func (c *VirtualClock) Stop() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		for _, ln := range c.lanes {
			close(ln.work)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Register adds the calling goroutine to the actor set. Time cannot
// advance while any registered actor is runnable.
func (c *VirtualClock) Register() {
	c.mu.Lock()
	c.actors++
	c.runnable++
	c.mu.Unlock()
}

// Unregister removes the calling goroutine from the actor set.
func (c *VirtualClock) Unregister() {
	c.mu.Lock()
	c.actors--
	c.runnable--
	if c.actors < 0 {
		c.mu.Unlock()
		panic("simtime: Unregister without matching Register")
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Drive registers the calling goroutine as a driving actor and returns
// the release function that unregisters it and stops the clock — the
// one-liner for scenario harnesses that own the clock:
//
//	clk := simtime.NewVirtual()
//	defer clk.Drive()()
//
// The ordering matters (unregister before stop) and is encapsulated
// here so call sites cannot get it wrong.
func (c *VirtualClock) Drive() (release func()) {
	c.Register()
	return func() {
		c.Unregister()
		c.Stop()
	}
}

// Go runs fn on a new registered goroutine, unregistering when it
// returns. The actor is counted before Go returns, so time cannot slip
// past the spawn.
func (c *VirtualClock) Go(fn func()) {
	c.Register()
	go func() {
		defer c.Unregister()
		fn()
	}()
}

// advanceLocked moves the clock forward to at; it never moves back.
// Callers hold mu.
func (c *VirtualClock) advanceLocked(at time.Duration) {
	if int64(at) > c.now.Load() {
		c.now.Store(int64(at))
	}
}

// Now returns the current virtual time. It takes no lock, so any
// goroutine may call it while the scheduler advances; successive calls
// never go backwards.
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

// scheduleLocked enqueues fn at now+d as a control-domain event of its
// own. Callers must hold mu.
func (c *VirtualClock) scheduleLocked(d time.Duration, fn func()) *Event {
	ev := &Event{Fn: fn}
	c.scheduleEventLocked(ev, Control, Control, d)
	return ev
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

// pushLocked routes ev to its queue and wakes the scheduler.
func (c *VirtualClock) pushLocked(ev *Event) {
	if ev.lane >= 0 {
		c.lanes[ev.lane].q.push(ev)
	} else {
		c.q.push(ev)
	}
	c.cond.Broadcast()
}

// removeLocked cancels ev wherever it lives.
func (c *VirtualClock) removeLocked(ev *Event) bool {
	if ev.lane >= 0 {
		return c.lanes[ev.lane].q.remove(ev)
	}
	return c.q.remove(ev)
}

// Sleep blocks the calling actor for d of virtual time. The wake-up is
// an ordinary control event: sleeps expiring at the same instant as
// other work interleave in deterministic key order.
//
// The caller must be a registered actor. The panic below is a
// best-effort guard: it fires only when every registered actor is
// already blocked, because the clock tracks counts, not goroutine
// identities — a Sleep from an unregistered goroutine while some actor
// is still runnable is undetectable here and corrupts quiescence
// accounting. Keep the registration discipline.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	c.mu.Lock()
	if c.runnable < 1 {
		c.mu.Unlock()
		panic(fmt.Sprintf("simtime: Sleep(%v) on virtual clock from unregistered goroutine", d))
	}
	// The wake-up increments runnable before the sleeper can resume, so
	// the scheduler never advances past a wake it just delivered.
	c.scheduleLocked(d, func() {
		c.mu.Lock()
		c.runnable++
		c.mu.Unlock()
		close(ch)
	})
	c.runnable--
	c.cond.Broadcast()
	c.mu.Unlock()
	<-ch
}

// sodWaiter is one SleepOrDone sleeper: a pending timer event plus a
// private wake channel. Exactly one waker — the timer event, Signal, or
// the sleeper's own done-receive — flips woken under the clock mutex and
// closes wake.
type sodWaiter struct {
	ev    *Event
	wake  chan struct{}
	woken bool
	fired bool // the timer path woke it (done did not fire first)
}

// SleepOrDone blocks the calling actor until d of virtual time passes or
// done fires, whichever comes first, reporting whether done won. Like
// Sleep it is a tracked wait: the scheduler sees the sleeper as blocked,
// so quiescence detection keeps working while migration handoffs (or any
// cancellable waits) are parked here.
//
// Two wake paths exist for done. Signal(done) wakes the sleeper under
// the clock mutex in the same instant as the close — fully deterministic.
// A direct close(done) also wakes it (via an ordinary select), but the
// scheduler may fire already-queued events before the sleeper resumes,
// so the virtual instant it observes on wake-up can trail the close.
// Prefer Signal when determinism matters.
func (c *VirtualClock) SleepOrDone(d time.Duration, done <-chan struct{}) bool {
	if done != nil {
		select {
		case <-done:
			return true
		default:
		}
	}
	if d <= 0 {
		return false
	}
	w := &sodWaiter{wake: make(chan struct{})}
	c.mu.Lock()
	if c.runnable < 1 {
		c.mu.Unlock()
		panic(fmt.Sprintf("simtime: SleepOrDone(%v) on virtual clock from unregistered goroutine", d))
	}
	w.ev = c.scheduleLocked(d, func() {
		c.mu.Lock()
		if w.woken {
			c.mu.Unlock()
			return
		}
		w.woken = true
		w.fired = true
		c.dropWaiterLocked(done, w)
		c.runnable++
		c.mu.Unlock()
		close(w.wake)
	})
	if done != nil {
		if c.waiters == nil {
			c.waiters = make(map[<-chan struct{}][]*sodWaiter)
		}
		c.waiters[done] = append(c.waiters[done], w)
	}
	c.runnable--
	c.cond.Broadcast()
	c.mu.Unlock()

	select {
	case <-w.wake:
		return !w.fired
	case <-done:
		// Direct close (not via Signal): claim the wake ourselves unless
		// the timer or Signal already did.
		c.mu.Lock()
		if w.woken {
			c.mu.Unlock()
			<-w.wake
			return !w.fired
		}
		w.woken = true
		c.removeLocked(w.ev)
		c.dropWaiterLocked(done, w)
		c.runnable++
		c.cond.Broadcast()
		c.mu.Unlock()
		close(w.wake)
		return true
	}
}

// dropWaiterLocked removes w from the done channel's waiter list. Callers
// hold mu.
func (c *VirtualClock) dropWaiterLocked(done <-chan struct{}, w *sodWaiter) {
	if done == nil {
		return
	}
	ws := c.waiters[done]
	for i, o := range ws {
		if o == w {
			c.waiters[done] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(c.waiters[done]) == 0 {
		delete(c.waiters, done)
	}
}

// Signal closes ch after synchronously waking every SleepOrDone sleeper
// parked on it: cancelled timers are removed and the sleepers become
// runnable under the clock mutex, so the scheduler cannot advance virtual
// time between the signal and the wake-ups. This is the deterministic way
// to cancel a tracked wait; ch must not be closed by anyone else.
func (c *VirtualClock) Signal(ch chan struct{}) {
	var recv <-chan struct{} = ch
	c.mu.Lock()
	ws := c.waiters[recv]
	delete(c.waiters, recv)
	claimed := ws[:0]
	for _, w := range ws {
		if w.woken {
			continue
		}
		w.woken = true
		c.removeLocked(w.ev)
		c.runnable++
		claimed = append(claimed, w)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	close(ch)
	for _, w := range claimed {
		close(w.wake)
	}
}

// After returns a channel receiving the virtual timestamp once d has
// passed. See the Clock interface note: the receive is untracked.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// AfterFunc schedules fn to run on the scheduler goroutine after d of
// virtual time, keyed to the Control domain. Shard-context code (event
// handlers acting as a node) must use ScheduleDomain instead; calling
// AfterFunc from inside a parallel window panics, because the control
// queue is coordinator-owned during windows.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) Timer {
	if c.inWindow.Load() {
		panic("simtime: AfterFunc inside a parallel window; use ScheduleDomain with the acting node's domain")
	}
	return c.ScheduleDomain(Control, Control, d, fn)
}

// ScheduleDomain is ScheduleEvent on a fresh Event that runs fn — the
// one allocation a fire-and-forget schedule costs — returned as the
// Timer that cancels it.
func (c *VirtualClock) ScheduleDomain(origin, exec Domain, d time.Duration, fn func()) Timer {
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
