package simtime

import (
	"container/heap"
	"time"
)

// The container/heap methods of eventHeap, which the reference queue
// runs on.

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }

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

// eventQueue is what the queue differential tests and benchmarks drive:
// the wheel and the reference heap side by side.
type eventQueue interface {
	push(ev *Event)
	popMin() *Event
	peekMin() *Event
	remove(ev *Event) bool
	len() int
}

// heapQueue is the original binary-heap scheduler queue, kept as the
// semantics reference: the differential tests and FuzzWheelMatchesHeap
// replay identical schedules against it and the wheel and demand
// identical fire orders, and the queue benchmarks use it as baseline.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popMin() *Event { return heap.Pop(&q.h).(*Event) }

func (q *heapQueue) peekMin() *Event { return q.h[0] }

func (q *heapQueue) remove(ev *Event) bool {
	if ev.where != evReady {
		return false
	}
	heap.Remove(&q.h, int(ev.idx))
	return true
}

func (q *heapQueue) len() int { return len(q.h) }

// refClock is the strict-order reference for the clock: one heap holds
// control and node events alike, and a sleep pops them one at a time in
// (at, key) order, with no lanes and no windows. Keys are minted as the
// clock mints them. Its order equals a VirtualClock's whenever every
// node-domain event has a node origin, as every schedule in the
// simulator does: then a control event at an instant keys below every
// node event there, which is the order the clock's barriers give.
type refClock struct {
	q    heapQueue
	now  time.Duration
	seqs map[Domain]uint64
}

// NewVirtualReference creates the reference clock.
func NewVirtualReference() *refClock { return &refClock{seqs: map[Domain]uint64{}} }

func (r *refClock) schedule(origin, exec Domain, d time.Duration, fn func()) (stop func() bool) {
	if d < 0 {
		d = 0
	}
	ev := &Event{Fn: fn, at: r.now + d, seq: uint64(origin+1)<<domainSeqBits | r.seqs[origin]}
	r.seqs[origin]++
	r.q.push(ev)
	return func() bool { return r.q.remove(ev) }
}

func (r *refClock) Now() time.Time { return virtualEpoch.Add(r.now) }

func (r *refClock) DomainNow(Domain) time.Time { return r.Now() }

func (r *refClock) Observe(_ Domain, fn func(at time.Time)) { fn(r.Now()) }

func (r *refClock) PendingEvents() int { return r.q.len() }

func (r *refClock) Sleep(d time.Duration) { r.SleepOrDone(d, nil) }

func (r *refClock) SleepOrDone(d time.Duration, done <-chan struct{}) bool {
	if isClosed(done) {
		return true
	}
	if d <= 0 {
		return false
	}
	woke := false
	stopWake := r.schedule(Control, Control, d, func() { woke = true })
	for {
		ev := r.q.popMin()
		if ev.at > r.now {
			r.now = ev.at
		}
		if ev.Fn(); woke {
			return false
		}
		if isClosed(done) {
			stopWake()
			return true
		}
	}
}
