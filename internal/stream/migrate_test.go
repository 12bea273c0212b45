package stream

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// passChain returns n pass-through filters (selectivity 1) over
// stream 0.
func passChain(n int) *query.PlanNode {
	p := &query.PlanNode{Kind: query.KindSource}
	for i := 0; i < n; i++ {
		p = &query.PlanNode{Kind: query.KindFilter, Sel: 1, Left: p}
	}
	return p
}

// conservingCircuit hand-builds a circuit whose delivered tuple count
// must exactly equal the produced count: source → pinned pass-through
// filter → unpinned pass-through filter → consumer. The unpinned filter
// is the migration subject.
func conservingCircuit(t *testing.T, s *engineSetup, host topology.NodeID) (*optimizer.Circuit, int) {
	t.Helper()
	plan := passChain(2)
	if err := plan.ComputeRates(s.env.Stats); err != nil {
		t.Fatal(err)
	}
	q := query.Query{ID: 7, Consumer: s.env.Topo.StubNodeIDs()[9], Streams: []query.StreamID{0}}
	b := &optimizer.Builder{Env: s.env}
	c, err := b.Skeleton(q, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	migratable := -1
	for i, svc := range c.Services {
		if !svc.Pinned && svc.Plan != nil {
			svc.Node = host
			migratable = i
		}
	}
	if migratable < 0 {
		t.Fatal("circuit has no unpinned service")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c, migratable
}

// TestMigrationZeroTupleLoss is the protocol's core invariant: migrate a
// service mid-stream, quiesce, and every produced tuple must have been
// delivered — none dropped, none unrouted, none stuck.
func TestMigrationZeroTupleLoss(t *testing.T) {
	s := newEngineSetup(t, 31)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(2 * time.Second) // traffic flowing

	target := stubs[6]
	m, err := s.engine.Migrate(c.Query.ID, svc, target)
	if err != nil {
		t.Fatal(err)
	}
	// Let the handoff complete and traffic continue across it.
	s.clk.Sleep(2 * time.Second)
	select {
	case <-m.Done():
	default:
		t.Fatal("migration not complete after 2 simulated seconds")
	}
	if m.Aborted {
		t.Fatal("migration aborted")
	}
	if got := run.Host(svc); got != target {
		t.Fatalf("service on node %d after migration, want %d", got, target)
	}

	// Quiesce: stop producing, drain in-flight tuples, compare counts.
	run.HaltProducers()
	s.clk.Sleep(time.Second)
	produced, delivered := run.TuplesProduced(), run.Measure().TuplesOut
	if produced == 0 {
		t.Fatal("no tuples produced")
	}
	if delivered != produced {
		t.Fatalf("tuple loss across migration: produced %d, delivered %d (buffered %d, forwarded %d)",
			produced, delivered, m.Buffered, m.Forwarded)
	}
	if v := s.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v during migration", v)
	}
	if v := s.net.Metrics.Counter("msgs.down_dropped").Value(); v != 0 {
		t.Fatalf("msgs.down_dropped = %v during migration", v)
	}
}

// TestMigrationBuffersDuringHandoff pins the dual-phase behaviour: with
// an upstream rate high enough, tuples arrive at the target before
// cutover and must be buffered, then replayed — visible as a non-zero
// Buffered count and unbroken delivery.
func TestMigrationBuffersDuringHandoff(t *testing.T) {
	s := newEngineSetup(t, 32)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[1])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(time.Second)

	// Pick the farthest stub from the current host so the drain window
	// spans multiple tuple intervals (50 KB/s → one tuple per 20 sim-ms).
	from := run.Host(svc)
	target, far := from, 0.0
	for _, n := range stubs {
		if n == from {
			continue
		}
		if d := s.env.Topo.Latency(from, n); d > far {
			far, target = d, n
		}
	}
	m, err := s.engine.Migrate(c.Query.ID, svc, target)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(2 * time.Second)
	<-m.Done()
	run.HaltProducers()
	s.clk.Sleep(time.Second)
	if run.Measure().TuplesOut != run.TuplesProduced() {
		t.Fatalf("loss: produced %d delivered %d", run.TuplesProduced(), run.Measure().TuplesOut)
	}
	if m.StateKB < 0 {
		t.Fatalf("negative state size %v", m.StateKB)
	}
}

// TestMigrationDeterministicUnderVirtualClock runs the same migration
// scenario twice and requires identical timings, buffer counts, and
// delivered totals — the property X12/X13 rely on.
func TestMigrationDeterministicUnderVirtualClock(t *testing.T) {
	type outcome struct {
		produced, delivered, buffered int
		start, end                    time.Time
	}
	runOnce := func() outcome {
		s := newEngineSetup(t, 33)
		stubs := s.env.Topo.StubNodeIDs()
		c, svc := conservingCircuit(t, s, stubs[3])
		run, err := s.engine.Deploy(c)
		if err != nil {
			t.Fatal(err)
		}
		s.clk.Sleep(1500 * time.Millisecond)
		m, err := s.engine.Migrate(c.Query.ID, svc, stubs[7])
		if err != nil {
			t.Fatal(err)
		}
		s.clk.Sleep(2 * time.Second)
		run.HaltProducers()
		s.clk.Sleep(time.Second)
		return outcome{
			produced:  run.TuplesProduced(),
			delivered: run.Measure().TuplesOut,
			buffered:  m.Buffered,
			start:     m.StartedAt,
			end:       m.ScheduledEnd,
		}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same-seed migration runs diverge:\n%+v\n%+v", a, b)
	}
	if a.produced != a.delivered {
		t.Fatalf("loss in deterministic run: %+v", a)
	}
}

// TestMigrateValidation covers the refusal paths.
func TestMigrateValidation(t *testing.T) {
	s := newEngineSetup(t, 34)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	id := c.Query.ID
	if _, err := s.engine.Migrate(id+1, svc, stubs[5]); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := s.engine.Migrate(id, len(c.Services)+3, stubs[5]); err == nil {
		t.Fatal("bad service index accepted")
	}
	if _, err := s.engine.Migrate(id, svc, run.Host(svc)); err == nil {
		t.Fatal("self-migration accepted")
	}
	// Consumer (pinned, nil plan) must be refused.
	for i, svcDef := range c.Services {
		if svcDef.Plan == nil {
			if _, err := s.engine.Migrate(id, i, stubs[5]); err == nil {
				t.Fatal("consumer migration accepted")
			}
		}
	}
	// Down target refused.
	s.net.SetNodeDown(stubs[5], true)
	if _, err := s.engine.Migrate(id, svc, stubs[5]); err == nil {
		t.Fatal("down target accepted")
	}
	s.net.SetNodeDown(stubs[5], false)
	// Double migration refused while in flight.
	if _, err := s.engine.Migrate(id, svc, stubs[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.engine.Migrate(id, svc, stubs[6]); err == nil {
		t.Fatal("concurrent migration of one service accepted")
	}
	s.clk.Sleep(time.Second) // let it finish
	if _, err := s.engine.Migrate(id, svc, stubs[6]); err != nil {
		t.Fatalf("post-handoff migration refused: %v", err)
	}
}

// TestMigrationJoinStateTravels runs a 2-way join circuit through a
// migration and checks the operator keeps producing joined output
// afterwards (its windows moved with it), with zero unrouted messages.
func TestMigrationJoinStateTravels(t *testing.T) {
	s := newEngineSetup(t, 35)
	q := query.Query{ID: 9, Consumer: s.env.Topo.TransitNodeIDs()[0], Streams: []query.StreamID{0, 1}}
	c := s.optimize(t, q)
	joinIdx := -1
	for i, svc := range c.Services {
		if svc.Plan != nil && svc.Plan.Kind == query.KindJoin {
			joinIdx = i
		}
	}
	if joinIdx < 0 {
		t.Fatal("no join service")
	}
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(3 * time.Second)
	before := run.Measure().TuplesOut
	if before == 0 {
		t.Fatal("join produced nothing before migration")
	}
	// Move the join somewhere else.
	from := run.Host(joinIdx)
	var target topology.NodeID = -1
	for _, n := range s.env.Topo.StubNodeIDs() {
		if n != from {
			target = n
			break
		}
	}
	m, err := s.engine.Migrate(c.Query.ID, joinIdx, target)
	if err != nil {
		t.Fatal(err)
	}
	if m.StateKB <= 0 {
		t.Fatalf("join migrated with no state (%v KB); windows were filled", m.StateKB)
	}
	s.clk.Sleep(3 * time.Second)
	after := run.Measure().TuplesOut
	if after <= before {
		t.Fatalf("join stopped producing after migration: %d → %d", before, after)
	}
	if v := s.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v", v)
	}
}

// closeWithHandoffsInFlight deploys eight circuits with two migratable
// services each, starts a handoff on every one of the sixteen in a
// scrambled order, closes the engine while all are in flight, and
// returns the JSONL trace plus the (query, service) of each cancelled
// handoff in the order its span ended.
func closeWithHandoffsInFlight(t *testing.T) ([]byte, [][2]int) {
	t.Helper()
	s := newEngineSetup(t, 35)
	tr := trace.New(s.clk)
	cfg := DefaultEngineConfig()
	cfg.Tracer = tr
	eng := NewEngine(s.net, s.env.Topo, cfg)
	stubs := s.env.Topo.StubNodeIDs()
	b := &optimizer.Builder{Env: s.env}
	type handoff struct {
		id  query.QueryID
		svc int
	}
	var todo []handoff
	for _, id := range []query.QueryID{12, 3, 9, 5, 16, 2, 7, 11} {
		plan := passChain(3)
		if err := plan.ComputeRates(s.env.Stats); err != nil {
			t.Fatal(err)
		}
		c, err := b.Skeleton(query.Query{ID: id, Consumer: stubs[9], Streams: []query.StreamID{0}}, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, svc := range c.Services {
			if !svc.Pinned && svc.Plan != nil {
				svc.Node = stubs[2]
				// Higher service index first: teardown must not simply
				// replay the order the handoffs started in.
				todo = append([]handoff{{id, i}}, todo...)
			}
		}
		if _, err := eng.Deploy(c); err != nil {
			t.Fatal(err)
		}
	}
	s.clk.Sleep(time.Second)
	began := map[uint64][2]int{}
	for _, h := range todo {
		if _, err := eng.Migrate(h.id, h.svc, stubs[6]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	var order [][2]int
	for _, ev := range tr.Events() {
		if ev.Cat != "engine" || ev.Name != "migration" {
			continue
		}
		switch ev.Ph {
		case trace.Begin:
			began[ev.Span] = [2]int{int(ev.Args[0].Num), int(ev.Args[1].Num)}
		case trace.End:
			order = append(order, began[ev.Span])
		}
	}
	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), order
}

// TestCloseCancelsHandoffsInOrder pins the end of a trace: Engine.Close
// used to tear circuits down in map-iteration order, so the span-ends of
// the handoffs it cancelled differed from run to run. They now come in
// (query id, service index) order, and two runs are byte-identical to
// the last line.
func TestCloseCancelsHandoffsInOrder(t *testing.T) {
	first, order := closeWithHandoffsInFlight(t)
	if len(order) != 16 {
		t.Fatalf("%d handoffs cancelled at Close, want 16", len(order))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool {
		return order[i][0] < order[j][0] || order[i][0] == order[j][0] && order[i][1] < order[j][1]
	}) {
		t.Fatalf("handoffs cancelled out of (query, service) order: %v", order)
	}
	for run := 0; run < 4; run++ {
		if again, _ := closeWithHandoffsInFlight(t); !bytes.Equal(first, again) {
			t.Fatalf("run %d: trace differs from the first run's", run+2)
		}
	}
}
