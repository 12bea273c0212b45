package simtime

import (
	"fmt"
	"math"
	"time"
)

// Domain identifies a deterministic event source. The sharded data
// plane partitions the simulation into per-node domains (Domain(nodeID))
// plus one Control domain for everything driven by harness goroutines
// and scheduler-context callbacks (sweeps, detectors, migration phases,
// fault plans). Each domain's event stream is executed serially, so a
// per-domain schedule counter is enough to make the global event order
// a pure function of the event history — independent of how many shards
// execute it and of goroutine scheduling.
type Domain int32

// Control is the domain of harness- and scheduler-context work. Control
// events at an instant order before any node-domain event at the same
// instant, which matches the barrier semantics of the sharded clock:
// control work runs between parallel windows, never inside them.
const Control Domain = -1

// domainSeqBits splits the packed event key: the high bits carry
// origin+1 (Control packs to 0, so control events sort first within an
// instant), the low 44 bits carry the per-domain schedule counter. The
// split supports ~1M domains and 2^44 events per domain — far past any
// scenario here — while keeping the key a single uint64 so the event
// queues compare exactly as before.
const domainSeqBits = 44

// DomainClock is the optional Clock extension the sharded data plane
// requires: scheduling stamped with an explicit origin domain, reading
// the origin's local time, and deterministic deferred observation.
// Both the virtual clock and the real clock implement it.
type DomainClock interface {
	Clock

	// ScheduleEvent schedules the caller-owned ev to fire after d,
	// keyed as the next event of origin and executed in exec's shard;
	// the Event documents when it may be scheduled again. During a
	// parallel window the caller must be running in origin's shard
	// (every converted call site acts as the origin node); outside
	// windows any context may call it. Control exec means the
	// scheduler/coordinator context.
	ScheduleEvent(ev *Event, origin, exec Domain, d time.Duration)

	// ScheduleDomain is ScheduleEvent on a fresh Event that runs fn,
	// returned as the Timer that cancels it.
	ScheduleDomain(origin, exec Domain, d time.Duration, fn func()) Timer

	// DomainNow returns the current time as seen from origin's
	// execution context: inside a parallel window, the shard-local
	// event time; otherwise the global clock time.
	DomainNow(origin Domain) time.Time

	// Observe defers fn to the next synchronization point, where all
	// deferred observations run serially in deterministic
	// (time, event-key, emission-index) order; fn receives the virtual
	// time of the observing event. Outside a parallel window fn runs
	// inline. This is how shard-context code feeds order-sensitive
	// shared state (the tracer, detector timestamps) without races and
	// without perturbing the bit-identical contract.
	Observe(origin Domain, fn func(at time.Time))
}

// realClock's DomainClock implementation: wall time has no shards, so
// domains are ignored and an Event is a time.Timer that is made once
// and Reset on every later schedule.

func (realClock) ScheduleEvent(ev *Event, _, _ Domain, d time.Duration) {
	if ev.timer == nil {
		// Made unarmed: ev.timer is then written before Fn can run and
		// re-arm ev from the timer goroutine.
		ev.timer = time.AfterFunc(math.MaxInt64, ev.Fn)
	}
	ev.timer.Reset(d)
}

func (rc realClock) ScheduleDomain(origin, exec Domain, d time.Duration, fn func()) Timer {
	ev := &Event{Fn: fn}
	rc.ScheduleEvent(ev, origin, exec, d)
	return ev
}

func (realClock) DomainNow(Domain) time.Time { return time.Now() }

func (realClock) Observe(_ Domain, fn func(at time.Time)) { fn(time.Now()) }

// AsDomainClock returns c as a DomainClock. Both clocks of this package
// are one; a Clock implemented elsewhere is not, and panics here rather
// than run origin-blind.
func AsDomainClock(c Clock) DomainClock {
	dc, ok := c.(DomainClock)
	if !ok {
		panic(fmt.Sprintf("simtime: %T is not a DomainClock; use Real() or a *VirtualClock", c))
	}
	return dc
}
