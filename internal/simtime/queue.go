package simtime

import "time"

// Event is one callback on a virtual clock's timeline and the handle
// that cancels it. The zero value with Fn set is ready to schedule.
//
// Events are caller-ownable: a component that fires periodically (a
// producer, a heartbeat) or recycles its messages (the overlay's
// pooled deliveries) embeds an Event in its own record and hands it to
// VirtualClock.ScheduleEvent each time, so a steady-state schedule
// allocates nothing. The contract that makes this safe:
//
//   - An Event may be scheduled again only after it fired (its Fn is
//     running or has returned) or after Stop returned; scheduling one
//     that is still pending panics.
//   - One owner at a time: the goroutine — under sharded execution, the
//     node domain — that schedules an Event is the only one that may
//     re-arm it, and the kernel never touches an Event after calling
//     its Fn, so Fn may re-arm or recycle its own Event.
//   - Fn is set before the first schedule and not changed while the
//     Event is pending; an Event stays with the clock it was first
//     scheduled on.
type Event struct {
	// Fn runs when the event fires, on the sleeping goroutine or a
	// lane worker; it must not block.
	Fn func()

	at time.Duration // virtual offset from the epoch
	// seq is the packed event key: (origin domain + 1) in the high
	// bits, the origin's schedule counter in the low domainSeqBits.
	// It breaks ties at equal timestamps — control events first, then
	// node domains in id order, FIFO within a domain — identically on
	// one lane and on K.
	seq uint64

	clk *VirtualClock // the clock the event was last scheduled on: Stop's way back

	// prev/next chain a bucketed event into its wheel slot's list.
	prev, next *Event

	// idx is the event's position in the ready (or reference) heap.
	idx int32
	// lane is the lane queue a pending event lives in, or -1 for the
	// control queue.
	lane int32

	// where names the container holding the event (zero: none — never
	// scheduled, fired, or stopped); level/slot locate a bucketed one.
	where       uint8
	level, slot uint8
}

const (
	evIdle   uint8 = iota // not pending
	evStaged              // in a lane outbox until the barrier
	evReady               // in a ready heap at idx
	evBucket              // in wheel slot buckets[level][slot]
)

// Stop cancels the event, reporting whether it was still pending. Stop
// is a control-context operation. Inside a window it panics for a
// node-domain event (its lane owns the queue then) and for any event of
// a sharded clock; on a one-lane clock a control event may be stopped
// from anywhere, as it may be scheduled.
func (ev *Event) Stop() bool {
	c := ev.clk
	if c == nil {
		return false // never scheduled
	}
	if c.inWindow.Load() && (ev.lane >= 0 || len(c.lanes) > 1) {
		panic("simtime: Event.Stop of a lane's event inside a window")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(ev)
}

// eventHeap is a binary min-heap of events by (at, seq): earliest
// first, FIFO within one virtual instant. It is the wheel's exact ready
// set, sifted in place on its own type (the reference heap in the tests
// drives it through container/heap instead); each event keeps its
// position in idx.
type eventHeap []*Event

// before orders events by (at, seq).
func (ev *Event) before(o *Event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

func (h *eventHeap) push(ev *Event) {
	ev.where = evReady
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// removeAt takes the event at position i out of the heap, marked idle.
func (h *eventHeap) removeAt(i int) *Event {
	old := *h
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i < n && !h.down(i, last) {
		h.up(i, last)
	}
	ev.where = evIdle
	return ev
}

// up places ev, which belongs at position j or above, by moving larger
// parents down into the hole.
func (h eventHeap) up(j int, ev *Event) {
	for j > 0 {
		p := (j - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[j] = h[p]
		h[j].idx = int32(j)
		j = p
	}
	h[j] = ev
	ev.idx = int32(j)
}

// down places ev, which belongs at position i or below, by moving
// smaller children up into the hole; it reports whether ev moved.
func (h eventHeap) down(i int, ev *Event) bool {
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = int32(i)
		i = c
	}
	h[i] = ev
	ev.idx = int32(i)
	return i > i0
}
