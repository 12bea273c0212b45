package simtime

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestWheelQueueDifferential replays an identical random op sequence —
// pushes with clustered and dispersed timestamps, removals of random
// pending events, pops — against the wheel and the reference heap and
// demands the exact same (at, seq) pop order. This is the core
// exactness property: the wheel is not an approximation of the heap, it
// IS the heap's order at lower cost.
func TestWheelQueueDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			heapQ := &heapQueue{}
			wheelQ := newWheelQueue()

			type pair struct{ h, w *Event }
			var pending []pair
			var now time.Duration
			var seq uint64

			push := func(at time.Duration) {
				h := &Event{at: at, seq: seq}
				w := &Event{at: at, seq: seq}
				seq++
				heapQ.push(h)
				wheelQ.push(w)
				pending = append(pending, pair{h, w})
			}
			pop := func() {
				if heapQ.len() == 0 {
					return
				}
				h := heapQ.popMin()
				w := wheelQ.popMin()
				if h.at != w.at || h.seq != w.seq {
					t.Fatalf("pop mismatch: heap (%v, %d) vs wheel (%v, %d)", h.at, h.seq, w.at, w.seq)
				}
				if h.at > now {
					now = h.at
				}
				for i, p := range pending {
					if p.h == h {
						pending = append(pending[:i], pending[i+1:]...)
						break
					}
				}
			}

			for i := 0; i < 20000; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // push, mixed scales to exercise every level
					var d time.Duration
					switch rng.Intn(4) {
					case 0:
						d = time.Duration(rng.Intn(3)) * 500 * time.Nanosecond // sub-tick clustering
					case 1:
						d = time.Duration(rng.Intn(1000)) * time.Microsecond
					case 2:
						d = time.Duration(rng.Intn(1000)) * time.Millisecond
					default:
						d = time.Duration(rng.Intn(3600)) * time.Second
					}
					push(now + d)
				case op < 8:
					pop()
				default: // remove a random pending event from both
					if len(pending) == 0 {
						continue
					}
					i := rng.Intn(len(pending))
					p := pending[i]
					if !heapQ.remove(p.h) || !wheelQ.remove(p.w) {
						t.Fatal("remove of pending event reported not queued")
					}
					if heapQ.remove(p.h) || wheelQ.remove(p.w) {
						t.Fatal("second remove reported still queued")
					}
					pending = append(pending[:i], pending[i+1:]...)
				}
				if heapQ.len() != wheelQ.len() {
					t.Fatalf("len mismatch: heap %d wheel %d", heapQ.len(), wheelQ.len())
				}
			}
			for heapQ.len() > 0 {
				pop()
			}
			if wheelQ.len() != 0 {
				t.Fatalf("wheel retains %d events after drain", wheelQ.len())
			}
		})
	}
}

// clockScript drives one VirtualClock through a deterministic
// pseudo-random workload covering the full scheduling surface —
// AfterFunc fires, timer Stop (both successful and too-late), Sleep,
// SleepOrDone won by the timer, and SleepOrDone cut short by an event
// closing its channel —
// and returns the observed event log. Every log line embeds the virtual
// timestamp, so two clocks agree only if their fire orders are
// identical down to (timestamp, seq) ties.
func clockScript(clk *VirtualClock, seed int64) []string {
	var mu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%d "+format, append([]any{clk.Now().UnixNano()}, args...)...))
		mu.Unlock()
	}

	rng := rand.New(rand.NewSource(seed))

	var timers []*Event
	for i := 0; i < 400; i++ {
		id := i
		switch rng.Intn(6) {
		case 0, 1: // schedule a fire
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			timers = append(timers, clk.AfterFunc(d, func() { logf("fire %d", id) }))
		case 2: // stop a random earlier timer
			if len(timers) > 0 {
				j := rng.Intn(len(timers))
				logf("stop %d = %v", j, timers[j].Stop())
			}
		case 3: // plain sleep
			clk.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			logf("slept %d", id)
		case 4: // SleepOrDone won by the timer (signal arrives later)
			ch := make(chan struct{})
			clk.AfterFunc(time.Duration(1500+rng.Intn(500))*time.Microsecond, func() { close(ch) })
			got := clk.SleepOrDone(time.Duration(rng.Intn(1000))*time.Microsecond, ch)
			logf("sod-timer %d = %v", id, got)
		default: // SleepOrDone cut short by the close
			ch := make(chan struct{})
			clk.AfterFunc(time.Duration(rng.Intn(500))*time.Microsecond, func() { close(ch) })
			got := clk.SleepOrDone(time.Duration(1000+rng.Intn(1000))*time.Microsecond, ch)
			logf("sod-signal %d = %v", id, got)
		}
	}
	// Drain whatever is still pending so late fires are compared too.
	clk.Sleep(10 * time.Second)
	logf("done pending=%d", clk.PendingEvents())
	return log
}

// TestWheelClockDifferential runs the same seeded scheduling script on
// a wheel-backed clock and on the reference heap-backed clock and
// requires byte-identical event logs — the end-to-end determinism
// guarantee the bit-identity experiment tests (X8/X11/X16) build on.
func TestWheelClockDifferential(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		wheelClk := NewVirtual()
		wheelLog := clockScript(wheelClk, seed)
		wheelClk.Stop()

		heapClk := NewVirtualReference()
		heapLog := clockScript(heapClk, seed)
		heapClk.Stop()

		if len(wheelLog) != len(heapLog) {
			t.Fatalf("seed %d: log length wheel=%d heap=%d", seed, len(wheelLog), len(heapLog))
		}
		for i := range wheelLog {
			if wheelLog[i] != heapLog[i] {
				t.Fatalf("seed %d: log[%d] differs:\n  wheel: %s\n  heap:  %s", seed, i, wheelLog[i], heapLog[i])
			}
		}
	}
}

// TestWheelFarFuture exercises the top wheel levels: events hours and
// days of virtual time out must still fire in exact order after
// cascading down through every level.
func TestWheelFarFuture(t *testing.T) {
	q := newWheelQueue()
	ref := &heapQueue{}
	delays := []time.Duration{
		0, time.Nanosecond, time.Microsecond, 65 * time.Microsecond,
		5 * time.Millisecond, 4097 * time.Millisecond, time.Second,
		17 * time.Minute, 3 * time.Hour, 40 * 24 * time.Hour,
	}
	var seq uint64
	for _, rep := range []time.Duration{1, 3} {
		for _, d := range delays {
			at := d * rep
			q.push(&Event{at: at, seq: seq})
			ref.push(&Event{at: at, seq: seq})
			seq++
		}
	}
	for ref.len() > 0 {
		h, w := ref.popMin(), q.popMin()
		if h.at != w.at || h.seq != w.seq {
			t.Fatalf("far-future order mismatch: heap (%v,%d) wheel (%v,%d)", h.at, h.seq, w.at, w.seq)
		}
	}
}

// benchQueue measures raw schedule+fire throughput with `pending`
// events resident, the regime the 16k-node heartbeat scenario puts the
// kernel in. Each iteration pushes one event and pops the minimum, so
// the queue stays at the target size while both code paths are
// exercised.
func benchQueue(b *testing.B, q eventQueue, pending int) {
	rng := rand.New(rand.NewSource(1))
	var now time.Duration
	var seq uint64
	push := func() {
		q.push(&Event{at: now + time.Duration(rng.Intn(10_000_000))*time.Microsecond, seq: seq})
		seq++
	}
	for i := 0; i < pending; i++ {
		push()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
		ev := q.popMin()
		if ev.at > now {
			now = ev.at
		}
	}
}

func BenchmarkWheelQueue100kPending(b *testing.B) { benchQueue(b, newWheelQueue(), 100_000) }
func BenchmarkHeapQueue100kPending(b *testing.B)  { benchQueue(b, &heapQueue{}, 100_000) }
func BenchmarkWheelQueue1kPending(b *testing.B)   { benchQueue(b, newWheelQueue(), 1_000) }
func BenchmarkHeapQueue1kPending(b *testing.B)    { benchQueue(b, &heapQueue{}, 1_000) }
