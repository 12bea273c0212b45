package simtime

import "container/heap"

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

// NewVirtualReference creates a virtual clock backed by heapQueue. Fire
// order is defined to be identical to NewVirtual's.
func NewVirtualReference() *VirtualClock {
	return &VirtualClock{q: &heapQueue{}}
}
