package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/query"
)

// TestJoinWindowMatchesNaiveScan replays random tuples on random sides
// through a Join and the naive scan of the last `window` tuples per
// side: both must emit the same matches in the same (oldest first)
// order, whatever mix of evictions, repeated keys and sole-slot chains
// the keys produce.
func TestJoinWindowMatchesNaiveScan(t *testing.T) {
	for _, window := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(window)))
		keyspace := window/2 + 3 // few keys: long chains
		j, ref := NewJoin(window, int64(keyspace)), &naiveJoin{window: window}
		var got []Tuple
		emit := func(tu Tuple) {
			if got = append(got, tu); len(got) > window {
				t.Fatalf("window %d: more matches than the window holds (a chain loops)", window)
			}
		}
		for i := 0; i < 5000; i++ {
			side := rng.Intn(2)
			tu := Tuple{Key: int64(rng.Intn(keyspace)), Value: float64(i)}
			got = got[:0]
			j.Process(side, tu, emit)
			if want := ref.process(side, tu); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("window %d step %d side %d key %d: matches %v, want %v", window, i, side, tu.Key, got, want)
			}
		}
	}
}

// TestJoinWindowSteadyStateDoesNotAllocate: once both windows are full,
// a tuple through the join — evict, insert, probe, emit — touches no
// allocator, at the benchmark's window/keyspace shape and with every key
// in the window at once.
func TestJoinWindowSteadyStateDoesNotAllocate(t *testing.T) {
	for _, shape := range []struct{ window, keyspace int }{{12, 250}, {64, 1000}, {64, 16}} {
		rng := rand.New(rand.NewSource(7))
		j := NewJoin(shape.window, int64(shape.keyspace))
		emitted := 0
		emit := func(Tuple) { emitted++ }
		step := func() {
			j.Process(rng.Intn(2), Tuple{Key: int64(rng.Intn(shape.keyspace)), SizeKB: 1}, emit)
		}
		for i := 0; i < 50*shape.keyspace; i++ {
			step()
		}
		if got := testing.AllocsPerRun(20_000, step); got != 0 {
			t.Fatalf("window %d keyspace %d: %v allocations per tuple in steady state, want 0", shape.window, shape.keyspace, got)
		}
		if emitted == 0 {
			t.Fatalf("window %d keyspace %d: join never matched", shape.window, shape.keyspace)
		}
	}
}

// TestJoinDeployAllocCeiling: building a join at deploy time is three
// allocations — the Join, its key table and its two rings in one block.
func TestJoinDeployAllocCeiling(t *testing.T) {
	node := &query.PlanNode{Kind: query.KindJoin, Sel: 0.1}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := OperatorFor(node, 250); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Fatalf("OperatorFor builds a join in %v allocations, want <= 3", got)
	}
}

// TestJoinCircuitAllocCeiling: a tuple travels from producer through
// the join to the sink inside its overlay message, by value, so a
// running 2-way join circuit costs (next to) nothing per message — on
// the single queue and on 4 lanes, where most sends cross lanes. What is
// left is the sink histogram's sample slice doubling.
func TestJoinCircuitAllocCeiling(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", shards), func(t *testing.T) {
			s := newEngineSetupLanes(t, 6, shards)
			q := query.Query{ID: 71, Consumer: s.env.Topo.StubNodeIDs()[5], Streams: []query.StreamID{0, 1}}
			if _, err := s.engine.Deploy(s.optimize(t, q)); err != nil {
				t.Fatal(err)
			}
			sent := s.net.Metrics.Counter("msgs.sent")
			s.runSim(120) // warm up: both windows full, free lists and queues at working size
			before := sent.Value()
			const runs = 3
			perRun := testing.AllocsPerRun(runs, func() { s.runSim(120) })
			msgs := (sent.Value() - before) / (runs + 1) // AllocsPerRun adds a warm-up call
			if msgs < 10_000 {
				t.Fatalf("a window carried %v messages, want at least 10k", msgs)
			}
			t.Logf("%.0f allocations over %.0f messages per window", perRun, msgs)
			if got := perRun / msgs; got > 0.01 {
				t.Fatalf("%.3f allocations per overlay message, want <= 0.01", got)
			}
		})
	}
}

// TestProducerStepDoesNotAllocateEvents: a producer is one
// event re-armed every interval, so 10k steps cost nothing beyond what
// the emitted tuples' consumers do (here: nothing).
func TestProducerStepDoesNotAllocateEvents(t *testing.T) {
	s := newEngineSetup(t, 3)
	host := s.env.Topo.StubNodeIDs()[0]
	tuples := 0
	p := s.engine.startProducer(0, host, 0, 50, 1, func(Tuple) { tuples++ })
	defer p.halt()
	interval := s.engine.produceInterval(50)
	s.clk.Sleep(100 * interval)
	before := tuples
	const runs = 3
	perRun := testing.AllocsPerRun(runs, func() { s.clk.Sleep(10_000 * interval) })
	if steps := (tuples - before) / (runs + 1); steps != 10_000 {
		t.Fatalf("%d producer steps per window, want 10000", steps)
	}
	if perRun != 0 {
		t.Fatalf("%v allocations over 10k producer steps, want 0", perRun)
	}
}

// TestPendingEventsAfterHaltIsZero: halting producers and stopping
// heartbeats removes their armed events from the queue — it does not
// merely flag them — so once the messages in flight have landed the
// clock is empty, which is the quiescence check scenario drivers and
// the benchmark make.
func TestPendingEventsAfterHaltIsZero(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", shards), func(t *testing.T) {
			s := newEngineSetupLanes(t, 6, shards)
			q := query.Query{ID: 70, Consumer: s.env.Topo.StubNodeIDs()[5], Streams: []query.StreamID{0, 1, 2}}
			run, err := s.engine.Deploy(s.optimize(t, q))
			if err != nil {
				t.Fatal(err)
			}
			// Beats an hour apart: one still armed after the drain below
			// can only be an event Stop failed to remove.
			hb := s.net.StartHeartbeats(time.Hour, 0.05)
			s.runSim(3)

			armed := s.clk.PendingEvents()
			run.HaltProducers()
			if got := armed - s.clk.PendingEvents(); got != len(q.Streams) {
				t.Fatalf("HaltProducers removed %d pending events, want %d (one per source)", got, len(q.Streams))
			}
			armed = s.clk.PendingEvents()
			hb.Stop()
			if got := armed - s.clk.PendingEvents(); got != s.net.NumNodes() {
				t.Fatalf("Heartbeats.Stop removed %d pending events, want %d (one per node)", got, s.net.NumNodes())
			}
			s.runSim(2) // longer than any path: everything in flight lands
			if n := s.clk.PendingEvents(); n != 0 {
				t.Fatalf("%d events pending after halt, stop and drain, want 0", n)
			}
			if run.Measure().TuplesOut == 0 {
				t.Fatal("the circuit delivered nothing before the halt")
			}
		})
	}
}
