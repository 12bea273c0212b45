package stream

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/topology"
)

// simStep returns one simulated millisecond as a clock duration.
func simStep(*engineSetup) time.Duration { return time.Millisecond }

// TestRepairAfterCrashResumesDelivery: kill an operator's host with no
// warning, repair onto a live node, and every lost tuple must be
// accounted for by the overlay's drop counters — bounded loss, never
// silent loss.
func TestRepairAfterCrashResumesDelivery(t *testing.T) {
	s := newEngineSetup(t, 61)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(2 * time.Second)

	victim := run.Host(svc)
	s.net.SetNodeDown(victim, true)
	s.clk.Sleep(time.Second) // undetected outage: tuples drop at the dead host
	beforeRepair := run.Measure().TuplesOut

	rec, err := s.engine.Repair(c.Query.ID, svc, stubs[6])
	if err != nil {
		t.Fatal(err)
	}
	if rec.From != victim || rec.To != stubs[6] {
		t.Fatalf("repair record %+v, want %d→%d", rec, victim, stubs[6])
	}
	if got := run.Host(svc); got != stubs[6] {
		t.Fatalf("service on %d after repair, want %d", got, stubs[6])
	}
	s.clk.Sleep(2 * time.Second)
	run.HaltProducers()
	s.clk.Sleep(time.Second)

	produced, delivered := run.TuplesProduced(), run.Measure().TuplesOut
	if delivered <= beforeRepair {
		t.Fatalf("delivery did not resume after repair: %d → %d", beforeRepair, delivered)
	}
	lost := produced - delivered
	if lost <= 0 {
		t.Fatalf("a 1s outage lost no tuples (produced %d, delivered %d)", produced, delivered)
	}
	counted := int(s.net.Metrics.Counter("msgs.down_dropped").Value() +
		s.net.Metrics.Counter("msgs.unrouted").Value())
	if lost != counted {
		t.Fatalf("loss fixed point broken: %d tuples missing, %d counted dropped", lost, counted)
	}

	// The repaired host must keep working after the old node rejoins:
	// its stale registration was retired, so nothing resurrects there.
	s.net.SetNodeDown(victim, false)
	if got := run.Host(svc); got != stubs[6] {
		t.Fatalf("rejoin moved the service: host %d", got)
	}
}

// TestRepairValidation covers the refusal paths.
func TestRepairValidation(t *testing.T) {
	s := newEngineSetup(t, 62)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.engine.Repair(c.Query.ID+1, svc, stubs[5]); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := s.engine.Repair(c.Query.ID, len(c.Services)+1, stubs[5]); err == nil {
		t.Fatal("bad service index accepted")
	}
	if _, err := s.engine.Repair(c.Query.ID, svc, run.Host(svc)); err == nil {
		t.Fatal("self-repair accepted")
	}
	s.net.SetNodeDown(stubs[5], true)
	if _, err := s.engine.Repair(c.Query.ID, svc, stubs[5]); err == nil {
		t.Fatal("down repair target accepted")
	}
	for i, svcDef := range c.Services {
		if svcDef.Plan == nil {
			if _, err := s.engine.Repair(c.Query.ID, i, stubs[6]); err == nil {
				t.Fatal("consumer repair accepted")
			}
		}
	}
}

// TestAbortForFailurePreCutover aborts a handoff before cutover with
// both hosts alive (the deadline-expiry case): the route must flip back
// to the source and the only tuples lost are the target's buffer plus
// deliveries in flight at the abort instant — an exact fixed point.
func TestAbortForFailurePreCutover(t *testing.T) {
	s := newEngineSetup(t, 63)
	stubs := s.env.Topo.StubNodeIDs()
	// The operator runs far from its source and moves next to it: the
	// handoff must wait out the long old link while, from T0 on, tuples
	// reach the target over the short new one — so the target buffers for
	// several tuple intervals before cutover.
	source := stubs[0]
	farthest, nearest := source, source
	for _, n := range stubs {
		if d := s.env.Topo.Latency(source, n); d > s.env.Topo.Latency(source, farthest) {
			farthest = n
		} else if n != source && (nearest == source || d < s.env.Topo.Latency(source, nearest)) {
			nearest = n
		}
	}
	c, svc := conservingCircuit(t, s, farthest)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(time.Second)

	from := run.Host(svc)
	m, err := s.engine.Migrate(c.Query.ID, svc, nearest)
	if err != nil {
		t.Fatal(err)
	}
	// The migration's own schedule says when to abort: the drain before
	// cutover is never shorter than the one after it, so cutover cannot
	// come before the midpoint of [StartedAt, ScheduledEnd].
	s.clk.Sleep(m.ScheduledEnd.Sub(m.StartedAt)/2 - simStep(s))
	if !m.CutoverAt().IsZero() {
		t.Fatalf("cutover at %v, before the midpoint of a handoff scheduled %v to %v",
			m.CutoverAt(), m.StartedAt, m.ScheduledEnd)
	}
	if onTarget := m.AbortForFailure(); onTarget {
		t.Fatal("pre-cutover abort reported the operator on the target")
	}
	if !m.Aborted {
		t.Fatal("abort did not mark the record")
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("aborted migration did not settle")
	}
	if got := run.Host(svc); got != from {
		t.Fatalf("service host %d after abort, want restored %d", got, from)
	}
	beforeResume := run.Measure().TuplesOut
	s.clk.Sleep(2 * time.Second)
	run.HaltProducers()
	s.clk.Sleep(time.Second)
	if got := run.Measure().TuplesOut; got <= beforeResume {
		t.Fatalf("delivery did not resume on the source: %d → %d", beforeResume, got)
	}

	produced, delivered := run.TuplesProduced(), run.Measure().TuplesOut
	inflight := int(s.net.Metrics.Counter("msgs.unrouted").Value())
	lost := produced - delivered
	// inflight may include the state shipment (a message, not a tuple).
	if lost < m.Buffered || lost > m.Buffered+inflight {
		t.Fatalf("loss fixed point broken: produced %d, delivered %d, buffered-lost %d, in-flight %d",
			produced, delivered, m.Buffered, inflight)
	}
	if m.Buffered == 0 {
		t.Fatal("the target buffered nothing before the abort")
	}
	if got := s.net.Metrics.Counter("repair.buffered_lost").Value(); int(got) != m.Buffered {
		t.Fatalf("repair.buffered_lost = %v, want %d", got, m.Buffered)
	}
	// The service migrates again cleanly after the abort.
	if _, err := s.engine.Migrate(c.Query.ID, svc, stubs[5]); err != nil {
		t.Fatalf("post-abort migration refused: %v", err)
	}
}

// TestAbortForFailureTargetCrashT0: the target dies right at T0. The
// abort restores the source route and no tuple is lost — only the
// state shipment died with the target.
func TestAbortForFailureTargetCrashT0(t *testing.T) {
	s := newEngineSetup(t, 64)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(time.Second)

	from := run.Host(svc)
	m, err := s.engine.Migrate(c.Query.ID, svc, stubs[6])
	if err != nil {
		t.Fatal(err)
	}
	s.net.SetNodeDown(stubs[6], true)
	if m.AbortForFailure() {
		t.Fatal("operator reported on a target that died at T0")
	}
	if got := run.Host(svc); got != from {
		t.Fatalf("host %d after abort, want %d", got, from)
	}
	s.clk.Sleep(2 * time.Second)
	run.HaltProducers()
	s.clk.Sleep(time.Second)
	produced, delivered := run.TuplesProduced(), run.Measure().TuplesOut
	if produced != delivered {
		t.Fatalf("tuple loss despite instant abort: produced %d, delivered %d", produced, delivered)
	}
	if v := s.net.Metrics.Counter("msgs.down_dropped").Value(); v > 1 {
		t.Fatalf("more than the state shipment died with the target: %v drops", v)
	}
}

// TestAbortForFailureSourceCrashT0: the source dies right after T0.
// The abort settles the record, Repair re-instantiates the operator on
// a live node, and delivery resumes with zero tuple loss (nothing was
// in flight to the dead host).
func TestAbortForFailureSourceCrashT0(t *testing.T) {
	s := newEngineSetup(t, 65)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(time.Second)

	from := run.Host(svc)
	m, err := s.engine.Migrate(c.Query.ID, svc, stubs[6])
	if err != nil {
		t.Fatal(err)
	}
	s.net.SetNodeDown(from, true)
	if m.AbortForFailure() {
		t.Fatal("operator reported on target before cutover")
	}
	rec, err := s.engine.Repair(c.Query.ID, svc, stubs[6])
	if err != nil {
		t.Fatalf("repair after source death: %v", err)
	}
	if rec.From != from {
		t.Fatalf("repair record from %d, want dead source %d", rec.From, from)
	}
	s.clk.Sleep(2 * time.Second)
	run.HaltProducers()
	s.clk.Sleep(time.Second)
	produced, delivered := run.TuplesProduced(), run.Measure().TuplesOut
	lost := produced - delivered
	counted := int(s.net.Metrics.Counter("msgs.down_dropped").Value() +
		s.net.Metrics.Counter("msgs.unrouted").Value())
	// The state shipment is a message, not a tuple: it may land in the
	// counters without a matching tuple loss.
	if lost < 0 || lost > counted {
		t.Fatalf("loss fixed point broken: %d tuples missing, %d messages counted", lost, counted)
	}
}

// TestAbortForFailurePostCutover: the source dies after the operator
// already moved. The abort must finish the handoff early (the dead
// forwarder retires) and the record settles un-aborted on the target.
func TestAbortForFailurePostCutover(t *testing.T) {
	s := newEngineSetup(t, 66)
	stubs := s.env.Topo.StubNodeIDs()
	c, svc := conservingCircuit(t, s, stubs[2])
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.clk.Sleep(time.Second)

	from := run.Host(svc)
	m, err := s.engine.Migrate(c.Query.ID, svc, stubs[6])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000 && m.CutoverAt().IsZero(); i++ {
		s.clk.Sleep(simStep(s))
	}
	if m.CutoverAt().IsZero() {
		t.Fatal("cutover never happened")
	}
	s.net.SetNodeDown(from, true)
	if !m.AbortForFailure() {
		t.Fatal("post-cutover abort denied the operator is on the target")
	}
	if m.Aborted {
		t.Fatal("post-cutover failure marked the migration aborted; the move completed")
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("early-finished migration did not settle")
	}
	if got := run.Host(svc); got != stubs[6] {
		t.Fatalf("host %d, want target %d", got, stubs[6])
	}
	before := run.Measure().TuplesOut
	s.clk.Sleep(2 * time.Second)
	if got := run.Measure().TuplesOut; got <= before {
		t.Fatalf("delivery stalled after early finish: %d → %d", before, got)
	}
}

// TestRepairSharedAdoptedZombie: the owner circuit cancelled (trimmed
// zombie keeps executing the shared operator), then the operator's host
// crashes. RepairShared must re-instantiate it and flip the surviving
// subscriber — no Evacuate, no live source.
func TestRepairSharedAdoptedZombie(t *testing.T) {
	f := newSharedFixture(t, 67)
	owner, cons := f.deployBoth(t)
	stubs := f.s.env.Topo.StubNodeIDs()
	f.s.runSim(20)

	if err := f.s.engine.Stop(f.ownerC.Query.ID); err != nil {
		t.Fatal(err)
	}
	if st := f.s.engine.SharedStats(); st.Zombies != 1 {
		t.Fatalf("SharedStats after owner cancel = %+v, want 1 zombie", st)
	}

	victim := topology.NodeID(f.inst.Node)
	f.s.net.SetNodeDown(victim, true)
	f.s.runSim(10) // undetected outage
	target := stubs[7]
	rec, err := f.s.engine.RepairShared(f.inst, target)
	if err != nil {
		t.Fatalf("RepairShared on a zombie provider: %v", err)
	}
	if rec.From != victim || rec.To != target {
		t.Fatalf("repair record %+v, want %d→%d", rec, victim, target)
	}
	if got := cons.Host(f.consSvc); got != target {
		t.Fatalf("subscriber routed to %d after repair, want %d", got, target)
	}

	beforeResume := cons.Measure().TuplesOut
	f.s.runSim(20)
	owner.HaltProducers()
	f.s.runSim(2)
	produced := owner.TuplesProduced()
	delivered := cons.Measure().TuplesOut
	if delivered <= beforeResume {
		t.Fatalf("subscriber starved after repair: %d → %d", beforeResume, delivered)
	}
	lost := produced - delivered
	counted := int(f.s.net.Metrics.Counter("msgs.down_dropped").Value() +
		f.s.net.Metrics.Counter("msgs.unrouted").Value())
	if lost <= 0 || lost > counted {
		t.Fatalf("loss fixed point broken: %d tuples missing, %d messages counted", lost, counted)
	}
}

// TestRepairDeterministic: the same crash-and-repair scenario twice,
// bit-identical counts.
func TestRepairDeterministic(t *testing.T) {
	type outcome struct {
		produced, delivered, dropped int
		at                           time.Time
	}
	runOnce := func() outcome {
		s := newEngineSetup(t, 68)
		stubs := s.env.Topo.StubNodeIDs()
		c, svc := conservingCircuit(t, s, stubs[2])
		run, err := s.engine.Deploy(c)
		if err != nil {
			t.Fatal(err)
		}
		s.clk.Sleep(time.Second)
		s.net.SetNodeDown(run.Host(svc), true)
		s.clk.Sleep(500 * time.Millisecond)
		rec, err := s.engine.Repair(c.Query.ID, svc, stubs[6])
		if err != nil {
			t.Fatal(err)
		}
		s.clk.Sleep(time.Second)
		run.HaltProducers()
		s.clk.Sleep(time.Second)
		return outcome{
			produced:  run.TuplesProduced(),
			delivered: run.Measure().TuplesOut,
			dropped:   int(s.net.Metrics.Counter("msgs.down_dropped").Value()),
			at:        rec.At,
		}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same-seed repair runs diverge:\n%+v\n%+v", a, b)
	}
	if a.produced == 0 || a.delivered == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}
