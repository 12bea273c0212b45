package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
)

// TestShardedCountersAreDeterministic runs one scenario on four lanes
// three times — a shared instance with its owner and a consumer, a
// three-way join, and a migration of the shared operator — and requires
// bit-equal overlay totals and circuit measurements. Each lane adds to
// its own slots and the totals sum them in lane order, so however the
// lanes interleave, a sharded run has one answer.
func TestShardedCountersAreDeterministic(t *testing.T) {
	run := func() string {
		f := newSharedFixtureLanes(t, 43, 4)
		s := f.s
		stubs := s.env.Topo.StubNodeIDs()
		owner, cons := f.deployBoth(t)
		join, err := s.engine.Deploy(s.optimize(t, query.Query{
			ID: 3, Consumer: stubs[11], Streams: []query.StreamID{0, 1, 2},
		}))
		if err != nil {
			t.Fatal(err)
		}
		s.runSim(10)
		m, err := s.engine.Migrate(f.ownerC.Query.ID, f.ownerSvc, stubs[5])
		if err != nil {
			t.Fatal(err)
		}
		s.runSim(10)
		select {
		case <-m.Done():
		default:
			t.Fatal("migration incomplete after 10 simulated seconds")
		}
		if join.Measure().TuplesOut == 0 || cons.SharedIn() == 0 {
			t.Fatal("the join or the shared instance delivered nothing: the scenario is vacuous")
		}
		out := fmt.Sprintf("usage.kbms %b kb.sent %b buffered %d\n",
			s.net.Metrics.Counter("usage.kbms").Value(), s.net.Metrics.Counter("kb.sent").Value(), m.Buffered)
		for _, r := range []*Running{owner, cons, join} {
			ms := r.Measure()
			out += fmt.Sprintf("q%d %+v usage %b rate %b\n", r.Circuit.Query.ID, ms, ms.NetworkUsage, ms.OutRateKBs)
		}
		return out
	}
	first := run()
	for i := 1; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestProducerDrawsMatchPerTupleRng pins the producer's burst draws to
// the rng order one draw per tuple takes: the (key, value) pairs a
// source emits, read at its sink, equal a fresh generator's
// Int63n(Keyspace) then NormFloat64 per tuple, across several bursts
// and up to a HaltProducers that lands mid-burst.
func TestProducerDrawsMatchPerTupleRng(t *testing.T) {
	s := newEngineSetup(t, 7)
	q := query.Query{ID: 4, Consumer: s.env.Topo.StubNodeIDs()[9], Streams: []query.StreamID{1}}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	sink := -1
	for i, svc := range c.Services {
		if svc.Plan == nil {
			sink = i
		}
	}
	if len(c.Services) != 2 || sink < 0 {
		t.Fatalf("circuit has %d services (sink %d), want a source and its sink", len(c.Services), sink)
	}
	// The source and the sink are one hop apart, so tuples arrive in
	// emission order.
	var got [][2]float64
	s.net.Node(c.Services[sink].Node).Register(fmt.Sprintf("q%d.s%d", q.ID, sink), func(m overlay.Message) {
		got = append(got, [2]float64{float64(m.Data.Key), m.Data.Value})
	})
	// 50 KB/s of 1 KB tuples: 50 tuples per simulated second.
	s.runSim(2.5)
	run.HaltProducers()
	s.runSim(2)
	produced := run.TuplesProduced()
	if produced < 3*prodBurst || produced%prodBurst == 0 {
		t.Fatalf("%d tuples produced: want at least 3 bursts of %d, halted mid-burst", produced, prodBurst)
	}
	if len(got) != produced {
		t.Fatalf("sink read %d tuples of %d produced", len(got), produced)
	}
	s.runSim(2)
	if run.TuplesProduced() != produced {
		t.Fatal("a halted producer kept emitting")
	}
	cfg := DefaultEngineConfig()
	rng := rand.New(rand.NewSource(cfg.Seed + 1*7919 + int64(q.ID)*104729))
	for i, kv := range got {
		key := rng.Int63n(cfg.Keyspace)
		val := rng.NormFloat64()
		if kv != [2]float64{float64(key), val} {
			t.Fatalf("tuple %d: (key, value) = (%v, %v), want (%d, %v)", i, kv[0], kv[1], key, val)
		}
	}
}
