package simtime

import (
	"fmt"
	"math/bits"
	"time"
)

// wheelQueue is a hierarchical timer wheel: the default eventQueue
// behind VirtualClock. Scheduling and firing are O(1) amortized (each
// event is bucketed once per level at most, and levels are constant),
// against the O(log n) of the reference binary heap — the difference
// that makes 100k+ pending events (16k-node heartbeat scenarios) cheap.
//
// Geometry: ticks of one microsecond, 9 levels of 64 slots. Level l
// slots span 64^l ticks, so the wheel covers 64^9 = 2^54 ticks — about
// 571 years of virtual time, comfortably past the 2^43-tick maximum a
// time.Duration offset can express. Slot indexing is absolute: the slot
// of tick t at level l is bits [6l, 6l+6) of t, and an event is placed
// at the lowest level whose slot index still differs from the wheel
// position's (the highest differing bit picks the level). One uint64
// occupancy bitmap per level makes "earliest occupied slot" a
// TrailingZeros scan instead of a walk.
//
// Exactness — the property the whole simulation kernel rests on — is
// preserved by a two-tier split. `horizon` partitions pending events by
// tick: everything strictly below it lives in `ready`, an exact
// (at, seq) min-heap; everything at or above it lives in the buckets.
// popMin therefore only ever pops the ready heap, whose minimum is
// globally minimal by the partition invariant, so fire order — down to
// sub-tick timestamp differences and FIFO sequence ties — is
// bit-identical to the reference heap's. When ready drains, advance()
// moves horizon forward: the earliest occupied slot at the lowest
// occupied level either feeds ready directly (level 0, one tick per
// slot) or redistributes into lower levels (cascade), strictly
// decreasing each event's level so the loop terminates.
type wheelQueue struct {
	// horizon partitions pending events: tick < horizon → ready heap,
	// tick >= horizon → buckets. Monotonically non-decreasing.
	horizon int64

	// ready holds the imminent events in exact (at, seq) order.
	ready eventHeap

	// buckets holds each slot's events as an intrusive doubly-linked
	// list through Event.prev/next, newest first: a slot owns no
	// storage, so filling an empty one allocates nothing and a drained
	// one retains nothing. Order within a slot is immaterial — events
	// leave a slot only into the ready heap or a lower level.
	buckets [wheelLevels][wheelSlots]*Event
	occ     [wheelLevels]uint64 // occ[l] bit s set iff buckets[l][s] is non-empty

	n int // total pending events (ready + buckets)

	// tick is the level-0 bucketing granularity. It starts at
	// wheelTick and adapts upward (never down) from the observed
	// minimum inter-event gap: workloads whose events are
	// milliseconds apart (heartbeat horizons) would otherwise cascade
	// the cursor through thousands of empty microsecond slots per
	// advance. Because exactness comes from the ready-heap partition,
	// not the tick, retuning never changes fire order.
	tick    time.Duration
	lastPop time.Duration
	minGap  time.Duration
	pops    int
}

const (
	// adaptEvery is how many pops elapse between tick reviews.
	adaptEvery = 4096
	// adaptSlack keeps the tick at most 1/4 of the observed minimum
	// gap, so events that were distinct ticks apart stay distinct.
	adaptSlack = 4
	// adaptMaxTick caps growth; one second of virtual time per level-0
	// slot is already far beyond any scheduling density here.
	adaptMaxTick = time.Second
	noGap        = time.Duration(1<<63 - 1)
)

const (
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits // 64
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 9
	// wheelTick is the bucketing granularity. Events within one tick
	// are still fired in exact (at, seq) order — the ready heap sorts
	// by full-resolution timestamps — so the tick only bounds how much
	// time one level-0 slot spans, not scheduling precision.
	wheelTick = time.Microsecond
)

func newWheelQueue() *wheelQueue { return &wheelQueue{tick: wheelTick, minGap: noGap} }

func (q *wheelQueue) tickOf(at time.Duration) int64 { return int64(at / q.tick) }

// wheelLevelFor returns the bucket level for an event at tick `t` given
// the current wheel position `pos`: the level of the highest bit in
// which they differ (level 0 when they differ only within the low 6
// bits or not at all). Deltas beyond the top level's span — unreachable
// for time.Duration offsets, see the geometry note above — clamp to the
// top level.
func wheelLevelFor(pos, t int64) int {
	masked := uint64(pos^t) | wheelSlotMask
	significant := 63 - bits.LeadingZeros64(masked)
	l := significant / wheelSlotBits
	if l >= wheelLevels {
		l = wheelLevels - 1
	}
	return l
}

func (q *wheelQueue) push(ev *Event) {
	q.n++
	q.insert(ev)
}

// insert routes an already-counted event to the ready heap or a bucket.
func (q *wheelQueue) insert(ev *Event) {
	t := q.tickOf(ev.at)
	if t < q.horizon {
		// Already inside the ready window (a zero-delay schedule, or a
		// schedule from code whose `now` trails the horizon): the
		// exact heap absorbs it and ordering stays global.
		q.ready.push(ev)
		return
	}
	q.place(ev, t)
}

// place buckets a pending event with tick t >= q.horizon at the head
// of its slot's list.
func (q *wheelQueue) place(ev *Event, t int64) {
	l := wheelLevelFor(q.horizon, t)
	s := int((t >> (wheelSlotBits * l)) & wheelSlotMask)
	ev.where, ev.level, ev.slot = evBucket, uint8(l), uint8(s)
	head := q.buckets[l][s]
	ev.prev, ev.next = nil, head
	if head != nil {
		head.prev = ev
	}
	q.buckets[l][s] = ev
	q.occ[l] |= 1 << s
}

// take empties slot s of level l and returns its list. Walkers read
// ev.next before re-inserting ev, which overwrites the links.
func (q *wheelQueue) take(l, s int) *Event {
	head := q.buckets[l][s]
	q.buckets[l][s] = nil
	q.occ[l] &^= 1 << s
	return head
}

// reinsert routes every event of a detached slot list back through
// insert.
func (q *wheelQueue) reinsert(list *Event) {
	for ev := list; ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		q.insert(ev)
		ev = next
	}
}

func (q *wheelQueue) popMin() *Event {
	for len(q.ready) == 0 {
		q.advance()
	}
	ev := q.ready.removeAt(0)
	q.n--
	q.observePop(ev.at)
	return ev
}

func (q *wheelQueue) peekMin() *Event {
	for len(q.ready) == 0 {
		q.advance()
	}
	return q.ready[0]
}

// observePop feeds the adaptive-tick statistics and retunes the wheel
// when the workload's minimum inter-event gap shows the current tick is
// needlessly fine.
func (q *wheelQueue) observePop(at time.Duration) {
	if gap := at - q.lastPop; gap > 0 && gap < q.minGap {
		q.minGap = gap
	}
	q.lastPop = at
	if q.pops++; q.pops < adaptEvery {
		return
	}
	q.pops = 0
	g := q.minGap
	q.minGap = noGap
	if g == noGap {
		return
	}
	newTick := q.tick
	for newTick < adaptMaxTick && newTick<<wheelSlotBits <= g/adaptSlack {
		newTick <<= wheelSlotBits
	}
	if newTick != q.tick {
		q.retick(newTick)
	}
}

// retick re-buckets every pending event under a coarser tick. The
// horizon moves to the same point in time expressed in new ticks,
// rounded up so that it still covers every ready event: a later push
// below the old horizon must land in the ready heap beside them, not in
// a bucket behind them. Reinsertion moves each bucketed event below the
// new horizon into the ready heap, so the partition, and with it fire
// order, is exactly preserved.
func (q *wheelQueue) retick(newTick time.Duration) {
	var pend *Event // every bucketed event, chained through next
	for l := 0; l < wheelLevels; l++ {
		for q.occ[l] != 0 {
			for ev := q.take(l, bits.TrailingZeros64(q.occ[l])); ev != nil; {
				next := ev.next
				ev.next = pend
				pend = ev
				ev = next
			}
		}
	}
	horizonTime := time.Duration(q.horizon) * q.tick
	q.tick = newTick
	q.horizon = int64((horizonTime + newTick - 1) / newTick)
	q.reinsert(pend)
}

// advance moves the horizon to the next occupied slot. The scan runs
// lowest level first: slots at level l with index >= the horizon's own
// level-l index all start at or after the horizon and strictly before
// any candidate at level l+1 (whose slots span the whole level-l
// window), so the first hit is the global earliest. A level-0 hit moves
// the slot — a single tick's worth of events — into the ready heap; a
// higher-level hit re-places its events relative to the new horizon,
// pushing every one of them at least one level down (their top
// differing bit is now inside the slot's span), which bounds total
// re-placement work at wheelLevels per event over its lifetime.
func (q *wheelQueue) advance() {
	// Settle the horizon's own slot at every level above 0 first, top
	// down. When a level-0 drain sets horizon = slotStart+1 and the +1
	// carries across a slot boundary, the horizon enters a new slot at
	// one or more higher levels without redistributing it; that slot
	// spans the whole window the lower levels cover, so its events may
	// precede anything a bottom-up scan would find. Draining top-down
	// re-places each such event strictly below its old level (its top
	// bit differing from the horizon is now inside the slot's span),
	// after which the bottom-up scan below is sound. New insertions
	// never land on a cursor slot above level 0 — a tick matching the
	// horizon's slot index there has its highest differing bit lower —
	// so only rollover can populate one.
	for l := wheelLevels - 1; l >= 1; l-- {
		c := uint((q.horizon >> (wheelSlotBits * l)) & wheelSlotMask)
		if q.occ[l]&(1<<c) == 0 {
			continue
		}
		q.reinsert(q.take(l, int(c)))
	}
	for l := 0; l < wheelLevels; l++ {
		c := uint((q.horizon >> (wheelSlotBits * l)) & wheelSlotMask)
		w := q.occ[l] &^ (1<<c - 1) // occupied slots at index >= c
		if w == 0 {
			continue
		}
		s := bits.TrailingZeros64(w)
		span := int64(1) << (wheelSlotBits * (l + 1))
		slotStart := q.horizon&^(span-1) | int64(s)<<(wheelSlotBits*l)
		// A level-0 slot is one tick: everything in it is due next, and
		// with the horizon past it insert sends it all to the ready
		// heap. Above level 0 this is the cascade: enter the slot and
		// redistribute.
		q.horizon = slotStart
		if l == 0 {
			q.horizon++
		}
		q.reinsert(q.take(l, s))
		return
	}
	panic(fmt.Sprintf("simtime: wheel advance found no occupied slot with %d events pending", q.n))
}

func (q *wheelQueue) remove(ev *Event) bool {
	switch ev.where {
	case evReady:
		q.ready.removeAt(int(ev.idx))
	case evBucket:
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			q.buckets[ev.level][ev.slot] = ev.next
			if ev.next == nil {
				q.occ[ev.level] &^= 1 << ev.slot
			}
		}
		ev.prev, ev.next = nil, nil
		ev.where = evIdle
	default:
		return false
	}
	q.n--
	return true
}

func (q *wheelQueue) len() int { return q.n }
