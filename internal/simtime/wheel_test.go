package simtime

import (
	"fmt"
	"math/rand"
	"slices"
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
			wheelQ := &wheelQueue{}

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

// scriptClock is what clockScript drives: a VirtualClock through
// clockUnderTest, or the strict-order reference.
type scriptClock interface {
	Now() time.Time
	DomainNow(Domain) time.Time
	Observe(Domain, func(time.Time))
	PendingEvents() int
	Sleep(time.Duration)
	SleepOrDone(time.Duration, <-chan struct{}) bool
	schedule(origin, exec Domain, d time.Duration, fn func()) (stop func() bool)
}

// clockUnderTest adapts a VirtualClock to scriptClock: a Control
// schedule is an AfterFunc, any other a ScheduleDomain.
type clockUnderTest struct{ *VirtualClock }

func (c clockUnderTest) schedule(origin, exec Domain, d time.Duration, fn func()) func() bool {
	if origin == Control && exec == Control {
		return c.AfterFunc(d, fn).Stop
	}
	return c.ScheduleDomain(origin, exec, d, fn).Stop
}

// scriptNodes is the number of node domains a clock script uses.
const scriptNodes = 4

// clockScript drives one clock through the workload that ops encodes,
// three bytes an op, and returns its event log and its observation
// log. The script covers the scheduling surface: control events and
// their Stop (successful and too late), Sleep, SleepOrDone won by the
// timer and cut short by a control event closing its channel,
// node-domain events scheduled by control code, within a domain and
// across two, and node events that chain zero-delay node events, send
// to another domain, call AfterFunc and stop control events. Delays are
// multiples of 100µs below 800µs, so control and node events of
// several domains share instants. Every log line embeds the clock's
// time, so two clocks agree only if their fire orders and their Now
// readings are identical; observations go to a log of their own,
// since a window defers them to its end.
func clockScript(clk scriptClock, ops []byte) (log, obs []string) {
	if len(ops) == 0 {
		ops = []byte{0}
	}
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d "+format, append([]any{clk.Now().UnixNano()}, args...)...))
	}
	dly := func(v byte) time.Duration { return time.Duration(v%8) * 100 * time.Microsecond }
	var ctlStops, nodeStops []func() bool
	next := 0

	var node func(origin, dom Domain, d time.Duration, depth int)
	var ctl func(d time.Duration, depth int)
	node = func(origin, dom Domain, d time.Duration, depth int) {
		id := next
		next++
		nodeStops = append(nodeStops, clk.schedule(origin, dom, d, func() {
			logf("node %d dom %d at %d", id, dom, clk.DomainNow(dom).UnixNano())
			clk.Observe(dom, func(at time.Time) { obs = append(obs, fmt.Sprintf("%d node %d", at.UnixNano(), id)) })
			b := ops[(id*7+3)%len(ops)]
			switch b % 5 {
			case 0: // a zero-delay event in the node's own domain
				if depth < 3 {
					node(dom, dom, 0, depth+1)
				}
			case 1: // a send to another domain
				if depth < 3 {
					node(dom, (dom+1+Domain(b/5)%(scriptNodes-1))%scriptNodes, dly(b/5), depth+1)
				}
			case 2: // node code schedules a control event
				ctl(dly(b/5), depth+1)
			case 3: // node code stops a control event
				if len(ctlStops) > 0 {
					logf("node %d stops %d = %v", id, int(b/5)%len(ctlStops), ctlStops[int(b/5)%len(ctlStops)]())
				}
			}
		}))
	}
	ctl = func(d time.Duration, depth int) {
		id := next
		next++
		ctlStops = append(ctlStops, clk.schedule(Control, Control, d, func() {
			logf("ctl %d", id)
			if b := ops[(id*5+1)%len(ops)]; b%3 == 0 && depth < 3 {
				node(Domain(b/3%scriptNodes), Domain(b/3%scriptNodes), dly(b/12), depth+1)
			}
		}))
	}

	for i := 0; i+3 <= len(ops); i += 3 {
		op, a, b := ops[i]%8, ops[i+1], ops[i+2]
		switch op {
		case 0:
			ctl(dly(a), 0)
		case 1:
			dom := Domain(b % scriptNodes)
			node(dom, dom, dly(a), 0)
		case 2:
			node(Domain(b%scriptNodes), Domain(b/scriptNodes%scriptNodes), dly(a), 0)
		case 3:
			if b%2 == 0 && len(ctlStops) > 0 {
				logf("stop ctl %d = %v", int(a)%len(ctlStops), ctlStops[int(a)%len(ctlStops)]())
			} else if len(nodeStops) > 0 {
				logf("stop node %d = %v", int(a)%len(nodeStops), nodeStops[int(a)%len(nodeStops)]())
			}
		case 4, 5:
			clk.Sleep(dly(a) * time.Duration(1+b%4))
			logf("slept %d", i)
		case 6: // SleepOrDone won by the timer
			ch := make(chan struct{})
			clk.schedule(Control, Control, 2*time.Millisecond+dly(b), func() { close(ch) })
			logf("sod-timer %d = %v", i, clk.SleepOrDone(dly(a)+100*time.Microsecond, ch))
		default: // SleepOrDone cut short by a control event's close
			ch := make(chan struct{})
			clk.schedule(Control, Control, dly(a), func() { close(ch) })
			logf("sod-signal %d = %v", i, clk.SleepOrDone(time.Millisecond+dly(b), ch))
		}
	}
	// Drain whatever is still pending so late fires are compared too.
	clk.Sleep(10 * time.Second)
	logf("done pending=%d", clk.PendingEvents())
	return log, obs
}

// matchReference runs ops on a one-lane clock and on the strict-order
// reference and fails on the first difference of either log.
func matchReference(t *testing.T, ops []byte) {
	t.Helper()
	clk := NewVirtual()
	defer clk.Stop()
	gotLog, gotObs := clockScript(clockUnderTest{clk}, ops)
	wantLog, wantObs := clockScript(NewVirtualReference(), ops)
	for _, l := range []struct {
		what      string
		got, want []string
	}{{"event log", gotLog, wantLog}, {"observation log", gotObs, wantObs}} {
		for i := 0; i < len(l.got) || i < len(l.want); i++ {
			var g, w string
			if i < len(l.got) {
				g = l.got[i]
			}
			if i < len(l.want) {
				w = l.want[i]
			}
			if g != w {
				t.Fatalf("%s line %d differs:\n  one lane:  %q\n  reference: %q", l.what, i, g, w)
			}
		}
	}
}

// TestWheelClockDifferential runs seeded scheduling scripts on a
// one-lane clock and on the strict-order reference and requires
// identical event and observation logs — the end-to-end determinism
// guarantee the bit-identity experiment tests (X8/X11/X16) build on.
func TestWheelClockDifferential(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		ops := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { matchReference(t, ops) })
	}
}

// TestPushBehindReadyEventFiresFirst: after 4,095 node events 1 ms
// apart have carried the lane wheel's cursor up to its fourth level, the
// event at T fires while T + 500 ns waits in the ready heap. An event T
// schedules 200 ns ahead must still fire before T + 500 ns: it lands
// below the horizon, in the ready heap beside the waiting event, and
// not in a bucket behind it.
func TestPushBehindReadyEventFiresFirst(t *testing.T) {
	c := newTestClock(t)
	const node Domain = 0
	const events = 4096
	for i := 1; i < events; i++ {
		c.ScheduleDomain(node, node, time.Duration(i)*time.Millisecond, func() {})
	}
	T := time.Duration(events) * time.Millisecond
	var fired []time.Duration
	record := func() { fired = append(fired, c.DomainNow(node).Sub(virtualEpoch)) }
	c.ScheduleDomain(node, node, T, func() {
		record()
		c.ScheduleDomain(node, node, 200*time.Nanosecond, record)
	})
	c.ScheduleDomain(node, node, T+500*time.Nanosecond, record)
	c.Sleep(T + time.Millisecond)
	want := []time.Duration{T, T + 200*time.Nanosecond, T + 500*time.Nanosecond}
	if !slices.Equal(fired, want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}
}

// TestWheelFarFuture exercises the top wheel levels: events hours and
// days of virtual time out must still fire in exact order after
// cascading down through every level.
func TestWheelFarFuture(t *testing.T) {
	q := &wheelQueue{}
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
// kernel in. Each iteration re-arms the event the last one popped and
// pops the minimum, so the queue stays at the target size, both code
// paths are exercised, and the events are preallocated: the benchmark
// times the queue, not the allocator.
func benchQueue(b *testing.B, q eventQueue, pending int) {
	rng := rand.New(rand.NewSource(1))
	events := make([]Event, pending+1)
	var now time.Duration
	var seq uint64
	push := func(ev *Event) {
		ev.at, ev.seq = now+time.Duration(rng.Intn(10_000_000))*time.Microsecond, seq
		seq++
		q.push(ev)
	}
	for i := 0; i < pending; i++ {
		push(&events[i])
	}
	spare := &events[pending]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(spare)
		spare = q.popMin()
		if spare.at > now {
			now = spare.at
		}
	}
}

func BenchmarkWheelQueue100kPending(b *testing.B) { benchQueue(b, &wheelQueue{}, 100_000) }
func BenchmarkHeapQueue100kPending(b *testing.B)  { benchQueue(b, &heapQueue{}, 100_000) }
func BenchmarkWheelQueue1kPending(b *testing.B)   { benchQueue(b, &wheelQueue{}, 1_000) }
func BenchmarkHeapQueue1kPending(b *testing.B)    { benchQueue(b, &heapQueue{}, 1_000) }

// BenchmarkWheelQueueSparse measures the opposite regime: n periodic
// timers with evenly spread phases, each re-armed one period after it
// fires, so consecutive events are period/n apart and the wheel's
// cursor crosses mostly empty slots. Its ns/op is per event.
func BenchmarkWheelQueueSparse(b *testing.B) {
	for _, c := range []struct {
		timers int
		period time.Duration
	}{{1000, 500 * time.Millisecond}, {100, time.Second}, {16, 10 * time.Second}} {
		b.Run(fmt.Sprintf("%dx%v", c.timers, c.period), func(b *testing.B) {
			q := &wheelQueue{}
			events := make([]Event, c.timers)
			var seq uint64
			for i := range events {
				events[i].at, events[i].seq = time.Duration(i)*c.period/time.Duration(c.timers), seq
				seq++
				q.push(&events[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.popMin()
				ev.at, ev.seq = ev.at+c.period, seq
				seq++
				q.push(ev)
			}
		})
	}
}
