package simtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClock returns a virtual clock with the test goroutine
// registered as the driving actor.
func newTestClock(t *testing.T) *VirtualClock {
	t.Helper()
	c := NewVirtual()
	c.Register()
	t.Cleanup(func() {
		c.Unregister()
		c.Stop()
	})
	return c
}

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	c := newTestClock(t)
	start := c.Now()
	wall := time.Now()
	c.Sleep(10 * time.Second)
	if elapsed := time.Since(wall); elapsed > 2*time.Second {
		t.Fatalf("virtual 10s sleep took %v of wall time", elapsed)
	}
	if got := c.Since(start); got != 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want exactly 10s", got)
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

func TestAfterDeliversTimestamp(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	ch := c.After(3 * time.Second)
	// The receive is untracked, so drive time from a registered actor.
	done := make(chan time.Time)
	go func() { done <- <-ch }()
	c.Register()
	c.Sleep(4 * time.Second)
	c.Unregister()
	got := <-done
	if want := virtualEpoch.Add(3 * time.Second); !got.Equal(want) {
		t.Fatalf("After delivered %v, want %v", got, want)
	}
}

func TestTwoActorsWakeInTimestampOrder(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	c.Go(func() {
		defer wg.Done()
		c.Sleep(2 * time.Second)
		mu.Lock()
		order = append(order, "late")
		mu.Unlock()
	})
	c.Go(func() {
		defer wg.Done()
		c.Sleep(1 * time.Second)
		mu.Lock()
		order = append(order, "early")
		mu.Unlock()
	})
	wg.Wait()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("wake order = %v, want [early late]", order)
	}
	if got := c.Since(virtualEpoch); got != 2*time.Second {
		t.Fatalf("clock at +%v, want +2s", got)
	}
}

// TestDeterministicEventOrder schedules a pseudo-random workload twice
// and demands bit-identical firing order — the property the simulation
// scenarios rely on for same-seed reproducibility.
func TestDeterministicEventOrder(t *testing.T) {
	run := func() []int {
		c := NewVirtual()
		defer c.Stop()
		c.Register()
		defer c.Unregister()
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

// TestManyActorsUnderRace exercises concurrent registration, sleeping,
// and event scheduling; run with -race it validates the scheduler's
// synchronization.
func TestManyActorsUnderRace(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	var total sync.Map
	var wg sync.WaitGroup
	// The spawner holds a registration until all eight are counted, or
	// the first actors would sleep the clock forward under the later ones.
	c.Register()
	for a := 0; a < 8; a++ {
		a := a
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Sleep(time.Duration(1+a) * time.Millisecond)
			}
			total.Store(a, c.Now())
		})
	}
	c.Unregister()
	wg.Wait()
	// The clock must sit at the latest actor's finish line: 8*50ms.
	if got := c.Since(virtualEpoch); got != 400*time.Millisecond {
		t.Fatalf("clock at +%v, want +400ms", got)
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

func TestSleepUnregisteredPanics(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep from unregistered goroutine did not panic")
		}
	}()
	c.Sleep(time.Second)
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

func TestSleepOrDoneSignalWakesDeterministically(t *testing.T) {
	c := newTestClock(t)
	done := make(chan struct{})
	// An event at t=1s signals the waiter; decoy events at the same and a
	// later instant must not run before the sleeper observes the wake
	// time (Signal makes the waiter runnable under the clock mutex, so
	// the scheduler parks before firing anything later).
	var lateFired bool
	c.AfterFunc(time.Second, func() { c.Signal(done) })
	c.AfterFunc(2*time.Second, func() { lateFired = true })
	if !c.SleepOrDone(10*time.Second, done) {
		t.Fatal("SleepOrDone missed the signal")
	}
	if got := c.Since(virtualEpoch); got != time.Second {
		t.Fatalf("woke at +%v, want exactly +1s (the Signal instant)", got)
	}
	if lateFired {
		t.Fatal("event after the signal instant fired before the sleeper resumed")
	}
	if c.PendingEvents() != 1 {
		t.Fatalf("%d events pending, want 1 (the 2s decoy)", c.PendingEvents())
	}
	c.Sleep(2 * time.Second) // drain the decoy
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

func TestSleepOrDoneDirectCloseWakes(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	done := make(chan struct{})
	var woke bool
	var claimed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		woke = c.SleepOrDone(time.Hour, done)
		claimed.Store(true)
	})
	// A second actor closes done directly mid-sleep; the waiter must
	// resume (possibly a few queued events later) without the hour
	// passing. The closer keeps driving small sleeps until the waiter
	// has resumed so the fallback timer stays far out of reach.
	c.Go(func() {
		c.Sleep(time.Second)
		close(done)
		for !claimed.Load() {
			c.Sleep(time.Millisecond)
		}
	})
	wg.Wait()
	if !woke {
		t.Fatal("direct close did not report done")
	}
	if got := c.Since(virtualEpoch); got >= time.Hour {
		t.Fatalf("clock ran to +%v; cancellation did not cut the sleep", got)
	}
}

// TestSleepOrDoneQuiescenceWithBlockedWaiter is the contract test for
// the ROADMAP item: a registered actor parked in SleepOrDone must count
// as blocked, so other actors' time keeps moving (no scheduler
// deadlock), and the waiter's timer keeps quiescence exact.
func TestSleepOrDoneQuiescenceWithBlockedWaiter(t *testing.T) {
	c := NewVirtual()
	defer c.Stop()
	done := make(chan struct{})
	var waiterWoke time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	c.Go(func() {
		defer wg.Done()
		c.SleepOrDone(30*time.Second, done)
		waiterWoke = c.Since(virtualEpoch)
	})
	c.Go(func() {
		defer wg.Done()
		// Time must advance through many small sleeps while the other
		// actor is parked in SleepOrDone — quiescence detection sees it
		// as blocked, not runnable.
		for i := 0; i < 10; i++ {
			c.Sleep(time.Second)
		}
		c.Signal(done)
	})
	wg.Wait()
	if waiterWoke != 10*time.Second {
		t.Fatalf("waiter woke at +%v, want +10s (the Signal instant)", waiterWoke)
	}
}

func TestSleepOrDoneTimerBeatsLaterSignal(t *testing.T) {
	c := newTestClock(t)
	done := make(chan struct{})
	if c.SleepOrDone(time.Second, done) {
		t.Fatal("done reported fired before anything signalled")
	}
	// Signalling after the timer won must not panic or wake anyone.
	c.Signal(done)
	if got := c.Since(virtualEpoch); got != time.Second {
		t.Fatalf("clock at +%v, want +1s", got)
	}
}

func TestRealClockSleepOrDone(t *testing.T) {
	c := Real()
	done := make(chan struct{})
	close(done)
	if !c.SleepOrDone(time.Minute, done) {
		t.Fatal("real SleepOrDone ignored fired done")
	}
	if c.SleepOrDone(time.Millisecond, make(chan struct{})) {
		t.Fatal("real SleepOrDone reported done on timer expiry")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	fired := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported pending")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("real After never fired")
	}
}
