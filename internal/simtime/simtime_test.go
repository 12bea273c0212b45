package simtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClock returns a virtual clock stopped when the test ends.
func newTestClock(t *testing.T) *VirtualClock {
	t.Helper()
	c := NewVirtual()
	t.Cleanup(c.Stop)
	return c
}

// TestVirtualSleepAdvancesInstantly: a 10 s sleep jumps the clock by
// exactly 10 s, firing on the way every event due by then — the one at
// the wake-up instant included, since it was scheduled first — and
// nothing later.
func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	c := newTestClock(t)
	start := c.Now()
	var fired []time.Duration
	for i := 1; i <= 10; i++ {
		c.AfterFunc(time.Duration(i)*time.Second, func() { fired = append(fired, c.Since(start)) })
	}
	c.AfterFunc(10*time.Second+time.Nanosecond, func() { t.Error("event after the wake-up fired") })
	c.Sleep(10 * time.Second)
	if got := c.Since(start); got != 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want exactly 10s", got)
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d of the 10 events due, want all", len(fired))
	}
	for i, at := range fired {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("event %d fired at %v, want %v", i, at, want)
		}
	}
	if n := c.PendingEvents(); n != 1 {
		t.Fatalf("%d events pending, want the one after the wake-up", n)
	}
}

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	if !c.Now().Equal(virtualEpoch) {
		t.Fatalf("fresh clock at %v, want %v", c.Now(), virtualEpoch)
	}
}

func TestAfterFuncFiresAtScheduledTime(t *testing.T) {
	c := newTestClock(t)
	var fired time.Time
	c.AfterFunc(250*time.Millisecond, func() { fired = c.Now() })
	c.Sleep(time.Second)
	want := virtualEpoch.Add(250 * time.Millisecond)
	if !fired.Equal(want) {
		t.Fatalf("event fired at %v, want %v", fired, want)
	}
}

func TestFIFOTieBreakAtEqualTimestamps(t *testing.T) {
	c := newTestClock(t)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	c.Sleep(2 * time.Second)
	if len(order) != 10 {
		t.Fatalf("fired %d/10 events", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at one instant fired out of schedule order: %v", order)
		}
	}
}

func TestTimerStopCancels(t *testing.T) {
	c := newTestClock(t)
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported not pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	c.Sleep(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.PendingEvents() != 0 {
		t.Fatalf("%d events pending after cancel and drain", c.PendingEvents())
	}
}

func TestEventCascadeRunsBeforeTimeAdvances(t *testing.T) {
	c := newTestClock(t)
	var at []time.Duration
	// An event at t=1s chains two zero-delay events; all three must run
	// at t=1s, before the sleeper wakes at 5s.
	c.AfterFunc(time.Second, func() {
		at = append(at, c.Since(virtualEpoch.Add(0)))
		c.AfterFunc(0, func() {
			at = append(at, c.Since(virtualEpoch.Add(0)))
			c.AfterFunc(0, func() { at = append(at, c.Since(virtualEpoch.Add(0))) })
		})
	})
	c.Sleep(5 * time.Second)
	if len(at) != 3 {
		t.Fatalf("ran %d/3 cascade events", len(at))
	}
	for i, d := range at {
		if d != time.Second {
			t.Fatalf("cascade event %d ran at %v, want 1s", i, d)
		}
	}
}

// TestDeterministicEventOrder schedules a pseudo-random workload twice
// and demands bit-identical firing order — the property the simulation
// scenarios rely on for same-seed reproducibility.
func TestDeterministicEventOrder(t *testing.T) {
	run := func() []int {
		c := NewVirtual()
		defer c.Stop()
		rng := rand.New(rand.NewSource(42))
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			// Coarse delays force many timestamp collisions.
			d := time.Duration(rng.Intn(5)) * time.Second
			c.AfterFunc(d, func() {
				order = append(order, i)
				if i%3 == 0 {
					j := 1000 + i
					c.AfterFunc(time.Duration(rng.Intn(2))*time.Second, func() {
						order = append(order, j)
					})
				}
			})
		}
		c.Sleep(20 * time.Second)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestConcurrentSleepersTakeTurns: eight goroutines sleep on one clock
// at once, each scheduling an event before every sleep. The sleeps take
// turns, so the clock ends at the sum of them all, and every event fires,
// none before its instant. Run with -race it checks the driving mutex
// covers the events and the queue.
func TestConcurrentSleepersTakeTurns(t *testing.T) {
	c := newTestClock(t)
	var fires atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < 8; a++ {
		d := time.Duration(1+a) * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				due := c.Now().Add(d / 2)
				c.AfterFunc(d/2, func() {
					if c.Now().Before(due) {
						t.Errorf("event due at %v fired at %v", due, c.Now())
					}
					fires.Add(1)
				})
				c.Sleep(d)
			}
		}()
	}
	wg.Wait()
	// 50 sleeps each of 1ms..8ms, one after another: 50*36ms.
	if got := c.Since(virtualEpoch); got != 1800*time.Millisecond {
		t.Fatalf("clock at +%v, want +1.8s", got)
	}
	if n := fires.Load(); n != 400 {
		t.Fatalf("%d of 400 events fired", n)
	}
}

func TestSleepZeroOrNegativeReturns(t *testing.T) {
	c := newTestClock(t)
	c.Sleep(0)
	c.Sleep(-time.Second)
	if got := c.Since(virtualEpoch); got != 0 {
		t.Fatalf("clock moved to +%v on non-positive sleeps", got)
	}
}

func TestSleepOrDoneTimerPath(t *testing.T) {
	c := newTestClock(t)
	done := make(chan struct{})
	if c.SleepOrDone(3*time.Second, done) {
		t.Fatal("SleepOrDone reported done fired; nothing fired it")
	}
	if got := c.Since(virtualEpoch); got != 3*time.Second {
		t.Fatalf("clock at +%v after full SleepOrDone, want +3s", got)
	}
	if c.PendingEvents() != 0 {
		t.Fatalf("%d events pending after timer wake", c.PendingEvents())
	}
}

// TestSleepOrDoneSignalWakesDeterministically: an event at 1s closes
// done, and the sleeper resumes at that instant, before a later control
// event and before a node event at the same instant, which a later
// window runs — on one lane and on two.
func TestSleepOrDoneSignalWakesDeterministically(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c := NewVirtualSharded([]int32{0, 1}, shards, time.Millisecond)
		done := make(chan struct{})
		var laneAt time.Duration
		lateFired := false
		c.ScheduleDomain(1, 1, time.Second, func() { laneAt = c.DomainNow(1).Sub(virtualEpoch) })
		c.AfterFunc(time.Second, func() { close(done) })
		c.AfterFunc(2*time.Second, func() { lateFired = true })
		if !c.SleepOrDone(10*time.Second, done) {
			t.Fatalf("shards=%d: SleepOrDone missed the close", shards)
		}
		if got := c.Since(virtualEpoch); got != time.Second {
			t.Fatalf("shards=%d: woke at +%v, want exactly +1s (the close instant)", shards, got)
		}
		if lateFired || laneAt != 0 {
			t.Fatalf("shards=%d: an event behind the close fired before the sleeper resumed", shards)
		}
		if n := c.PendingEvents(); n != 2 {
			t.Fatalf("shards=%d: %d events pending, want 2 (the node event and the 2s decoy)", shards, n)
		}
		c.Sleep(2 * time.Second) // drain both
		if laneAt != time.Second || !lateFired {
			t.Fatalf("shards=%d: node event at %v, decoy fired %v; want 1s and true", shards, laneAt, lateFired)
		}
		c.Stop()
	}
}

// TestEventPanicReachesSleeper: an event's panic unwinds through the
// sleep that ran it with its own value, and leaves the clock usable.
func TestEventPanicReachesSleeper(t *testing.T) {
	c := newTestClock(t)
	c.AfterFunc(time.Second, func() { panic("event failed") })
	func() {
		defer func() {
			if r := recover(); r != "event failed" {
				t.Fatalf("sleeper recovered %v, want the event's panic value", r)
			}
		}()
		c.Sleep(5 * time.Second)
		t.Fatal("Sleep returned past a panicking event")
	}()
	if got := c.Since(virtualEpoch); got != time.Second {
		t.Fatalf("clock at +%v after the panic, want +1s", got)
	}
	c.Sleep(time.Second)
	if got, n := c.Since(virtualEpoch), c.PendingEvents(); got != 2*time.Second || n != 0 {
		t.Fatalf("next sleep ended at +%v with %d events pending, want +2s and 0", got, n)
	}
}

// TestSleepAfterStopReturns: a stopped clock neither advances nor fires.
func TestSleepAfterStopReturns(t *testing.T) {
	c := NewVirtualSharded([]int32{0, 1}, 2, time.Millisecond)
	fired := false
	c.AfterFunc(time.Second, func() { fired = true })
	c.Stop()
	c.Sleep(2 * time.Second)
	if fired || c.Since(virtualEpoch) != 0 {
		t.Fatalf("stopped clock at +%v, event fired %v", c.Since(virtualEpoch), fired)
	}
}

func TestSleepOrDoneAlreadyFired(t *testing.T) {
	c := newTestClock(t)
	done := make(chan struct{})
	close(done)
	if !c.SleepOrDone(time.Second, done) {
		t.Fatal("SleepOrDone ignored an already-fired done channel")
	}
	if got := c.Since(virtualEpoch); got != 0 {
		t.Fatalf("clock moved to +%v on a pre-fired done", got)
	}
}

func TestSleepOrDoneNilChannelBehavesLikeSleep(t *testing.T) {
	c := newTestClock(t)
	if c.SleepOrDone(time.Second, nil) {
		t.Fatal("nil done reported fired")
	}
	if got := c.Since(virtualEpoch); got != time.Second {
		t.Fatalf("clock at +%v, want +1s", got)
	}
}

func TestSleepOrDoneTimerBeatsLaterSignal(t *testing.T) {
	c := newTestClock(t)
	done := make(chan struct{})
	if c.SleepOrDone(time.Second, done) {
		t.Fatal("done reported fired before anything signalled")
	}
	// Closing after the timer won must not wake anyone.
	close(done)
	if got := c.Since(virtualEpoch); got != time.Second {
		t.Fatalf("clock at +%v, want +1s", got)
	}
}

// TestForeignAfterFuncDuringWindow: while the test goroutine sleeps
// through heavy node-domain traffic, which runs in the lane's windows,
// another goroutine schedules control events with AfterFunc and stops
// some of them, in a loop. Every event fires at or after its due
// instant, and each one either fired or was stopped. Run with -race it
// checks that a control schedule during a window touches nothing the
// lane owns.
func TestForeignAfterFuncDuringWindow(t *testing.T) {
	c := newTestClock(t)
	const nodes = 64
	beats := make([]Event, nodes)
	for n := range beats {
		dom, ev, period := Domain(n), &beats[n], time.Duration(1+n%7)*10*time.Microsecond
		ev.Fn = func() { c.ScheduleEvent(ev, dom, dom, period) }
		c.ScheduleEvent(ev, dom, dom, period)
	}
	var fired, early, inWindow atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	scheduled, stopped := 0, 0
	go func() {
		defer close(done)
		var mine []*Event
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := time.Duration(i%50) * 10 * time.Microsecond
			due := c.Now().Add(d)
			if c.inWindow.Load() {
				inWindow.Add(1)
			}
			mine = append(mine, c.AfterFunc(d, func() {
				if c.Now().Before(due) {
					early.Add(1)
				}
				fired.Add(1)
			}))
			scheduled++
			if i%3 == 0 && mine[(i*7)%len(mine)].Stop() {
				stopped++
			}
		}
	}()
	for i := 0; i < 20_000 && inWindow.Load() < 200; i++ {
		c.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	for n := range beats {
		beats[n].Stop()
	}
	c.Sleep(time.Second) // fire what the other goroutine left pending
	if n := inWindow.Load(); n < 200 {
		t.Fatalf("only %d schedules landed inside a window", n)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d of %d events fired before their due instant", n, fired.Load())
	}
	if got := fired.Load() + int64(stopped); got != int64(scheduled) {
		t.Fatalf("%d fired + %d stopped, want the %d scheduled", fired.Load(), stopped, scheduled)
	}
	if n := c.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after the drain", n)
	}
}

// TestShardLanesRejectsPendingNodeEvents: a node-domain event pending on
// the one lane would sit outside its new lane's order, so ShardLanes
// refuses it; once it fired, sharding goes ahead and the domain's
// counter carries on.
func TestShardLanesRejectsPendingNodeEvents(t *testing.T) {
	c := newTestClock(t)
	fired := 0
	c.ScheduleDomain(1, 1, time.Millisecond, func() { fired++ })
	mustPanic(t, "ShardLanes with a node event pending", func() {
		c.ShardLanes([]int32{0, 1}, 2, time.Millisecond)
	})
	if c.Shards() != 1 {
		t.Fatalf("a refused ShardLanes left %d lanes", c.Shards())
	}
	c.AfterFunc(0, func() {}) // pending control events do not matter
	c.Sleep(2 * time.Millisecond)
	c.ShardLanes([]int32{0, 1}, 2, time.Millisecond)
	if c.Shards() != 2 {
		t.Fatalf("%d lanes after ShardLanes, want 2", c.Shards())
	}
	ev := c.ScheduleDomain(1, 1, time.Millisecond, func() { fired++ })
	if ev.seq != uint64(2)<<domainSeqBits|1 {
		t.Fatalf("domain 1's second event keyed %#x, want its counter at 1", ev.seq)
	}
	c.Sleep(2 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("%d of 2 node events fired", fired)
	}
}
