package simtime

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestScheduleDomainAllocatesOneObject pins the cost of the two
// scheduling forms: the fire-and-forget wrappers allocate exactly their
// Event, and scheduling a caller-owned Event allocates nothing.
func TestScheduleDomainAllocatesOneObject(t *testing.T) {
	c := newTestClock(t)
	fn := func() {}
	if got := testing.AllocsPerRun(1000, func() {
		c.ScheduleDomain(Domain(3), Domain(3), time.Millisecond, fn).Stop()
	}); got != 1 {
		t.Fatalf("ScheduleDomain + Stop = %v allocations, want 1 (the Event)", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		c.AfterFunc(time.Millisecond, fn).Stop()
	}); got != 1 {
		t.Fatalf("AfterFunc + Stop = %v allocations, want 1 (the Event)", got)
	}
	owned := &Event{Fn: fn}
	if got := testing.AllocsPerRun(1000, func() {
		c.ScheduleEvent(owned, Domain(3), Domain(3), time.Millisecond)
		owned.Stop()
	}); got != 0 {
		t.Fatalf("ScheduleEvent + Stop of an owned Event = %v allocations, want 0", got)
	}
	if n := c.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after every schedule was stopped", n)
	}
}

// TestRearmWhilePendingPanics pins the ownership contract's guard: an
// Event that is still queued cannot be scheduled again, one that was
// stopped or has fired can.
func TestRearmWhilePendingPanics(t *testing.T) {
	c := newTestClock(t)
	fires := 0
	ev := &Event{Fn: func() { fires++ }}
	if ev.Stop() {
		t.Fatal("Stop of a never-scheduled Event reported pending")
	}
	c.ScheduleEvent(ev, Control, Control, time.Second)
	mustPanic(t, "re-arm of a bucketed Event", func() { c.ScheduleEvent(ev, Control, Control, time.Second) })
	if !ev.Stop() {
		t.Fatal("Stop of the pending Event reported not pending")
	}
	c.ScheduleEvent(ev, Control, Control, 0) // due now: straight into the ready heap
	mustPanic(t, "re-arm of a ready Event", func() { c.ScheduleEvent(ev, Control, Control, time.Second) })
	c.Sleep(time.Millisecond)
	if fires != 1 {
		t.Fatalf("event fired %d times, want 1 (the stopped schedule must not fire)", fires)
	}
	if ev.Stop() {
		t.Fatal("Stop after fire reported pending")
	}
	c.ScheduleEvent(ev, Control, Control, time.Second) // fired: free to re-arm
	c.Sleep(2 * time.Second)
	if fires != 2 || c.PendingEvents() != 0 {
		t.Fatalf("after re-arm: fires=%d pending=%d, want 2 and 0", fires, c.PendingEvents())
	}
}

// TestOwnedEventRearmsItself drives the periodic pattern producers and
// heartbeats use — an Event whose Fn schedules it again — on the single
// queue and inside lane windows, and checks the fire instants, the
// absence of allocation, and that Stop removes the one pending firing.
func TestOwnedEventRearmsItself(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := NewVirtualSharded([]int32{0, 1, 2, 3, 0, 1, 2, 3}, shards, time.Millisecond)
		const period = 10 * time.Millisecond
		dom := Domain(5)
		at := make([]time.Duration, 0, 5) // the first firings; never grown, so later ones allocate nothing
		ev := &Event{}
		ev.Fn = func() {
			if len(at) < cap(at) {
				at = append(at, c.DomainNow(dom).Sub(virtualEpoch))
			}
			c.ScheduleEvent(ev, dom, dom, period)
		}
		c.ScheduleEvent(ev, dom, dom, period)
		c.Sleep(5*period + period/2)
		for i, got := range at {
			if want := time.Duration(i+1) * period; got != want {
				t.Fatalf("shards=%d: firing %d at %v, want %v", shards, i, got, want)
			}
		}
		if len(at) != 5 {
			t.Fatalf("shards=%d: %d firings in 5.5 periods, want 5", shards, len(at))
		}
		// 10k periods, and the Sleep itself allocates nothing either.
		sleep := func() { c.Sleep(10_000 * period) }
		if got := testing.AllocsPerRun(3, sleep); got != 0 {
			t.Fatalf("shards=%d: %v allocations over 10k re-arms, want 0; on a rerun:\n%s",
				shards, got, allocStacks(sleep))
		}
		if n := c.PendingEvents(); n != 1 {
			t.Fatalf("shards=%d: %d events pending, want the one armed firing", shards, n)
		}
		if !ev.Stop() || c.PendingEvents() != 0 {
			t.Fatalf("shards=%d: Stop left %d events pending", shards, c.PendingEvents())
		}
		c.Stop()
	}
}

// allocStacks runs fn once with every allocation sampled and returns
// the stacks that allocated meanwhile, so that an allocation count
// that should be zero names its cause.
func allocStacks(fn func()) string {
	before := allocsByStack()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	fn()
	runtime.MemProfileRate = rate
	after := allocsByStack()
	var b strings.Builder
	for stk, n := range after {
		if n -= before[stk]; n <= 0 {
			continue
		}
		fmt.Fprintf(&b, "%d allocation(s) at:\n", n)
		frames := runtime.CallersFrames(stk[:])
		for {
			f, more := frames.Next()
			if f.Function != "" {
				fmt.Fprintf(&b, "\t%s (%s:%d)\n", f.Function, f.File, f.Line)
			}
			if !more {
				break
			}
		}
	}
	if b.Len() == 0 {
		return "no allocation sampled\n"
	}
	return b.String()
}

// allocsByStack returns the process's allocation counts per stack. The
// profile publishes a sample once a garbage collection has finished
// after it, hence the two collections.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}
