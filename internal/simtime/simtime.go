// Package simtime is the discrete-event simulation kernel behind the
// overlay runtime: VirtualClock, a deterministic clock whose scheduler
// runs on a hierarchical timer wheel. It is the only clock an overlay
// runs on. The Clock interface and Real, the wall clock behind it, are
// for what waits or stamps outside an overlay: a tracer with no run to
// follow, a gossip ticker or an adaptation coordinator handed no clock.
//
// Under the virtual clock, time is a number, not a resource. Timers and
// delayed callbacks become Events queued in exact (timestamp, schedule
// sequence) order; the scheduler pops and runs them one at a time,
// jumping the clock forward instantly. Events scheduled for the same
// virtual instant fire in FIFO schedule order, so a fixed seed yields a
// bit-identical event sequence on every run — the reproducibility the
// large-scale SBON evaluation scenarios rely on. A ten-second simulated
// measurement window completes in however long its events take to
// process, typically milliseconds. An Event is also the Timer that
// cancels it, and code that fires over and over may own one and re-arm
// it (see Event), so a periodic or pooled schedule allocates nothing.
//
// # Quiescence and registered goroutines
//
// The virtual scheduler must never advance time while application code
// is still running at the current instant, or the run would depend on
// OS scheduling. It therefore tracks a set of registered goroutines
// ("actors") and only fires events when every actor is blocked in a
// clock wait (Sleep, SleepOrDone). The contract:
//
//   - Every goroutine that drives a virtual clock (a test body, an
//     experiment harness) must call Register before its first blocking
//     call and Unregister when done, or be spawned via Go.
//   - Registered goroutines must block only in clock primitives. Waiting
//     on channels or WaitGroups filled by events deadlocks the scheduler,
//     because it cannot see that wait. Code that must select on a
//     cancellation channel uses SleepOrDone, the tracked form of that
//     select.
//   - Event callbacks (AfterFunc functions) run sequentially on the
//     scheduler goroutine and must not block; they may schedule further
//     events and wake sleepers.
//
// While any registered actor is runnable the scheduler is parked, so
// actor code may freely mutate simulation state (deploy circuits,
// register handlers, read metrics) without racing event callbacks.
// With no registered actors the scheduler is also parked: virtual time
// only moves while someone is sleeping through it.
package simtime

import "time"

// Clock is what code that only waits and reads time needs of a clock.
// The real clock delegates to package time; the virtual clock advances a
// simulated timeline deterministically.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
	// Sleep pauses the caller for d. On a virtual clock the caller must
	// be a registered actor; the simulated timeline jumps forward
	// without consuming wall time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock time after d.
	// On a virtual clock, receiving from the channel is NOT a tracked
	// wait: only unregistered goroutines may block on it, and only
	// while registered actors elsewhere keep time moving.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules fn to run after d and returns a handle that
	// can cancel it. On a virtual clock fn runs on the scheduler
	// goroutine and must not block.
	AfterFunc(d time.Duration, fn func()) Timer
	// SleepOrDone pauses the caller for d, returning early — reporting
	// true — when done fires (receives or closes) first. On a virtual
	// clock this is a tracked wait: the caller must be a registered
	// actor, and quiescence detection sees the sleeper exactly as it
	// sees Sleep. Wakes caused by done are fully deterministic when done
	// is fired through VirtualClock.Signal; a plain close still wakes
	// the sleeper correctly but the virtual instant it resumes at may
	// trail the close by already-queued events.
	SleepOrDone(d time.Duration, done <-chan struct{}) bool
}

// Timer is a cancellable pending callback or expiry: an *Event on the
// virtual clock, a *time.Timer on the real one.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// realClock implements Clock on package time.
type realClock struct{}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

func (realClock) SleepOrDone(d time.Duration, done <-chan struct{}) bool {
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
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-done:
		return true
	}
}
