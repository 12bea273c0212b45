package simtime

import (
	"container/heap"
	"time"
)

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
	// node domains in id order, FIFO within a domain — identically in
	// single-queue and sharded execution.
	seq uint64

	clk *VirtualClock // the clock the event was last scheduled on: Stop's way back

	// prev/next chain a bucketed event into its wheel slot's list.
	prev, next *Event

	// idx is the event's position in the ready (or reference) heap.
	idx int32
	// lane is the shard queue a pending event lives in, or -1 for the
	// control queue (and for every event in single-queue mode).
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
// is a control-context operation: calling it from inside a parallel
// window panics (shard workers own their queues then).
func (ev *Event) Stop() bool {
	c := ev.clk
	if c == nil {
		return false // never scheduled
	}
	if c.inWindow.Load() {
		panic("simtime: Event.Stop inside a parallel window")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(ev)
}

// eventQueue is the scheduler's priority-queue contract: push pending
// events, pop the exact global (at, seq) minimum, remove a pending
// event by handle. wheelQueue, the hierarchical timer wheel, is the
// implementation every clock runs on; the binary heap it replaced
// lives on in the tests as the order it is checked against. The
// VirtualClock holds its mutex around every call, so implementations
// need no locking of their own.
type eventQueue interface {
	// push enqueues a pending event (at and seq already assigned).
	push(ev *Event)
	// popMin removes and returns the event with the smallest (at, seq),
	// marked idle. Callers guarantee len() > 0.
	popMin() *Event
	// peekMin returns the event popMin would return without removing
	// it. Callers guarantee len() > 0.
	peekMin() *Event
	// remove cancels a pending event, reporting whether it was still
	// queued (false if already fired or removed).
	remove(ev *Event) bool
	// len returns the number of pending events.
	len() int
}

// eventHeap orders events by (at, seq): earliest first, FIFO within one
// virtual instant. It is the wheel's exact ready set.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.where = evReady
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.where = evIdle
	*h = old[:n-1]
	return ev
}

// Thin container/heap wrappers used by the wheel's ready set.
func readyPush(h *eventHeap, ev *Event) { heap.Push(h, ev) }
func readyPop(h *eventHeap) *Event      { return heap.Pop(h).(*Event) }
func readyRemove(h *eventHeap, i int)   { heap.Remove(h, i) }
