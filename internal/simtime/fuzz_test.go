package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzWheelMatchesHeap turns bytes into an op sequence on the timer
// wheel and the reference heap side by side and demands that they pop
// identical (at, seq) and agree on len() after every op. Ops are three
// bytes — code, two value bytes — covering a push at each of the four
// delay scales of TestWheelQueueDifferential, peek, pop, removal of a
// pending event, removal of a fired or removed one (must report false),
// re-arm of such an idle caller-owned event, and a long run of evenly
// spaced push/pop pairs that carries the wheel through a tick review
// and, if nothing finer is queued, a retick.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 200, 2, 1, 44, 3, 0, 9, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{1, 3, 232, 2, 0, 5, 6, 0, 0, 7, 0, 0, 5, 0, 0, 8, 0, 0, 5, 0, 0})
	f.Add([]byte{2, 0, 7, 9, 0, 3, 1, 0, 50, 5, 0, 0, 8, 0, 2, 9, 0, 40, 5, 0, 0})
	// A pop that carries the horizon into a higher-level slot it has not
	// redistributed, then a push that lands below it at level 0.
	f.Add([]byte{1, 0, 63, 1, 0, 70, 5, 0, 0, 1, 0, 37, 5, 0, 0, 5, 0, 0})
	// 4,095 pops 1 ms apart, then events at the current instant and
	// 500 ns past it: popping the first is the tick review that grows
	// the tick to 64 µs while the second waits in the ready heap, and a
	// push at the current instant must still pop before it.
	retick := make([]byte, 0, 6*adaptEvery+9)
	for i := 1; i < adaptEvery; i++ {
		retick = append(retick, 2, 0, 1, 5, 0, 0)
	}
	f.Add(append(retick, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 5, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		wheel, ref := newWheelQueue(), &heapQueue{}
		// One logical event is a pair of Events, one per queue, listed
		// as pending or idle at pos. The queues ignore Event.lane, so
		// the reference's half carries the pair's index there: that is
		// how a popped event finds its pair.
		type pair struct {
			w, h Event
			pos  int
		}
		var pairs, pending, idle []*pair
		var now time.Duration
		var seq uint64

		list := func(l *[]*pair, p *pair) {
			p.pos = len(*l)
			*l = append(*l, p)
		}
		unlist := func(l *[]*pair, p *pair) {
			last := (*l)[len(*l)-1]
			(*l)[p.pos], last.pos = last, p.pos
			*l = (*l)[:len(*l)-1]
		}
		push := func(p *pair, d time.Duration) {
			p.w.at, p.w.seq = now+d, seq
			p.h.at, p.h.seq = now+d, seq
			seq++
			wheel.push(&p.w)
			ref.push(&p.h)
			list(&pending, p)
		}
		fresh := func(d time.Duration) {
			p := &pair{}
			p.h.lane = int32(len(pairs))
			pairs = append(pairs, p)
			push(p, d)
		}
		pop := func() {
			if ref.len() == 0 {
				return
			}
			h, w := ref.popMin(), wheel.popMin()
			if h.at != w.at || h.seq != w.seq {
				t.Fatalf("pop mismatch: heap (%v, %d) vs wheel (%v, %d)", h.at, h.seq, w.at, w.seq)
			}
			p := pairs[h.lane]
			if w != &p.w || w.where != evIdle || h.where != evIdle {
				t.Fatalf("popped (%v, %d): wrong object or not marked idle", w.at, w.seq)
			}
			if h.at > now {
				now = h.at
			}
			unlist(&pending, p)
			list(&idle, p)
		}
		delay := func(scale, v int) time.Duration {
			switch scale {
			case 0:
				return time.Duration(v%3) * 500 * time.Nanosecond // sub-tick clustering
			case 1:
				return time.Duration(v%1000) * time.Microsecond
			case 2:
				return time.Duration(v%1000) * time.Millisecond
			default:
				return time.Duration(v%3600) * time.Second
			}
		}

		runs := 0
		for ; len(data) >= 3; data = data[3:] {
			op, v := int(data[0]%10), int(data[1])<<8|int(data[2])
			switch op {
			case 0, 1, 2, 3:
				fresh(delay(op, v))
			case 4:
				if ref.len() > 0 {
					h, w := ref.peekMin(), wheel.peekMin()
					if h.at != w.at || h.seq != w.seq {
						t.Fatalf("peek mismatch: heap (%v, %d) vs wheel (%v, %d)", h.at, h.seq, w.at, w.seq)
					}
				}
			case 5:
				pop()
			case 6: // Stop of a pending event
				if len(pending) > 0 {
					p := pending[v%len(pending)]
					if !ref.remove(&p.h) || !wheel.remove(&p.w) {
						t.Fatal("remove of a pending event reported not queued")
					}
					unlist(&pending, p)
					list(&idle, p)
				}
			case 7: // Stop after fire, or a second Stop
				if len(idle) > 0 {
					p := idle[v%len(idle)]
					if ref.remove(&p.h) || wheel.remove(&p.w) {
						t.Fatal("remove of a fired or removed event reported still queued")
					}
				}
			case 8: // re-arm of an idle caller-owned event
				if len(idle) > 0 {
					p := idle[v%len(idle)]
					unlist(&idle, p)
					push(p, delay(v%4, v/4))
				}
			default: // two tick-review periods of evenly spaced push/pop pairs
				if runs++; runs > 2 {
					continue
				}
				gap := time.Duration(1+v%2000) * 100 * time.Microsecond
				for i := 0; i < 2*adaptEvery; i++ {
					fresh(gap)
					pop()
				}
			}
			if ref.len() != wheel.len() {
				t.Fatalf("len mismatch after op %d: heap %d wheel %d", op, ref.len(), wheel.len())
			}
		}
		for ref.len() > 0 {
			pop()
		}
		if wheel.len() != 0 {
			t.Fatalf("wheel retains %d events after drain", wheel.len())
		}
	})
}

// FuzzInlineLaneMatchesReference runs the clock script the bytes encode
// (see clockScript: three bytes an op, at most 200 ops) on a one-lane
// clock and on the strict-order reference, and requires identical event
// and observation logs: the lane's windows, cut at control events, must
// fire exactly what one heap popped one event at a time would, with the
// same Now readings.
func FuzzInlineLaneMatchesReference(f *testing.F) {
	// A node event at the instant of a control event, then a sleep.
	f.Add([]byte{0, 1, 0, 1, 1, 2, 4, 3, 0})
	// Node events that call AfterFunc(0) and chain same-instant events
	// across domains.
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 0, 6, 1, 0, 2, 4, 7, 0, 0, 2, 0})
	for _, seed := range []int64{1, 2, 3} {
		ops := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		matchReference(t, ops)
	})
}
