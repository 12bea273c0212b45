package stream

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// sharedFixture is an owner circuit (source → pinned filter → shared
// unpinned filter → sink) plus a consumer circuit that reuses the shared
// filter (reused leaf → own unpinned filter → sink). All selectivities
// are 1.0, so every produced tuple must reach both sinks — exact
// conservation across sharing, migration, and cancellation.
type sharedFixture struct {
	s        *engineSetup
	ownerC   *optimizer.Circuit
	consC    *optimizer.Circuit
	inst     *optimizer.ServiceInstance
	ownerSvc int // shared operator's index in the owner circuit
	consSvc  int // reused leaf's index in the consumer circuit
}

func newSharedFixture(t *testing.T, seed int64) *sharedFixture {
	t.Helper()
	return newSharedFixtureLanes(t, seed, 1)
}

// newSharedFixtureLanes is newSharedFixture on `shards` data-plane
// lanes (see newEngineSetupLanes).
func newSharedFixtureLanes(t *testing.T, seed int64, shards int) *sharedFixture {
	t.Helper()
	s := newEngineSetupLanes(t, seed, shards)
	stubs := s.env.Topo.StubNodeIDs()
	b := &optimizer.Builder{Env: s.env}

	ownerPlan := passChain(2)
	if err := ownerPlan.ComputeRates(s.env.Stats); err != nil {
		t.Fatal(err)
	}
	ownerQ := query.Query{ID: 1, Consumer: stubs[9], Streams: []query.StreamID{0}}
	ownerC, err := b.Skeleton(ownerQ, ownerPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &sharedFixture{s: s, ownerC: ownerC, ownerSvc: -1}
	for i, svc := range ownerC.Services {
		if !svc.Pinned && svc.Plan != nil {
			svc.Node = stubs[2]
			f.ownerSvc = i
		}
	}
	if f.ownerSvc < 0 {
		t.Fatal("owner circuit has no unpinned service")
	}
	shared := ownerC.Services[f.ownerSvc]
	f.inst = &optimizer.ServiceInstance{
		Signature: shared.Signature,
		Node:      shared.Node,
		OutRate:   shared.OutRate,
		InRate:    shared.InRate,
		Owner:     ownerQ.ID,
		RefCount:  2,
	}

	consPlan := passChain(3)
	if err := consPlan.ComputeRates(s.env.Stats); err != nil {
		t.Fatal(err)
	}
	consQ := query.Query{ID: 2, Consumer: stubs[13], Streams: []query.StreamID{0}}
	consC, err := b.Skeleton(consQ, consPlan, func(n *query.PlanNode) *optimizer.ServiceInstance {
		if n.Signature() == f.inst.Signature {
			return f.inst
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.consC = consC
	f.consSvc = -1
	for i, svc := range consC.Services {
		if svc.Reused {
			f.consSvc = i
		} else if !svc.Pinned && svc.Plan != nil {
			svc.Node = stubs[6]
		}
	}
	if f.consSvc < 0 {
		t.Fatal("consumer circuit did not reuse the instance")
	}
	return f
}

func (f *sharedFixture) deployBoth(t *testing.T) (owner, cons *Running) {
	t.Helper()
	owner, err := f.s.engine.Deploy(f.ownerC)
	if err != nil {
		t.Fatal(err)
	}
	cons, err = f.s.engine.Deploy(f.consC)
	if err != nil {
		t.Fatal(err)
	}
	return owner, cons
}

// assertNoLoss quiesces the dataflow and checks the overlay's loss
// counters.
func (f *sharedFixture) assertNoLoss(t *testing.T) {
	t.Helper()
	if v := f.s.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v", v)
	}
	if v := f.s.net.Metrics.Counter("msgs.down_dropped").Value(); v != 0 {
		t.Fatalf("msgs.down_dropped = %v", v)
	}
}

// TestSharedExecutionSingleInstance is the tentpole's core claim: a
// circuit with a reused service deploys, the shared operator executes
// once, and its tuples reach every subscriber — the owner's sink AND
// the consumer's, with exact conservation.
func TestSharedExecutionSingleInstance(t *testing.T) {
	f := newSharedFixture(t, 41)
	owner, cons := f.deployBoth(t)

	st := f.s.engine.SharedStats()
	if st.Instances != 1 || st.Subscribers != 1 || st.Zombies != 0 {
		t.Fatalf("SharedStats = %+v, want 1 instance / 1 subscriber / 0 zombies", st)
	}

	f.s.runSim(60)
	owner.HaltProducers()
	f.s.runSim(2)

	produced := owner.TuplesProduced()
	if produced == 0 {
		t.Fatal("owner produced nothing")
	}
	if cons.TuplesProduced() != 0 {
		t.Fatalf("consumer has no producers but counted %d produced tuples", cons.TuplesProduced())
	}
	if got := owner.Measure().TuplesOut; got != produced {
		t.Fatalf("owner delivered %d of %d", got, produced)
	}
	if got := cons.Measure().TuplesOut; got != produced {
		t.Fatalf("consumer delivered %d of %d shared tuples", got, produced)
	}
	if got := cons.SharedIn(); got != produced {
		t.Fatalf("consumer SharedIn = %d, want %d", got, produced)
	}
	if cons.Measure().NetworkUsage <= 0 {
		t.Fatal("consumer circuit measured no network usage for its shared link")
	}
	f.assertNoLoss(t)
}

// sharedRunCounts executes the shared scenario for a fixed window and
// returns every measured number that must be reproducible.
func sharedRunCounts(t *testing.T, seed int64) [6]float64 {
	t.Helper()
	f := newSharedFixture(t, seed)
	owner, cons := f.deployBoth(t)
	f.s.runSim(45)
	owner.HaltProducers()
	f.s.runSim(2)
	om, cm := owner.Measure(), cons.Measure()
	return [6]float64{
		float64(owner.TuplesProduced()), float64(om.TuplesOut), om.NetworkUsage,
		float64(cm.TuplesOut), cm.NetworkUsage, cm.MeanLatencyMs,
	}
}

// TestSharedExecutionDeterministic pins bit-identical same-seed runs of
// the shared dataflow under the virtual clock.
func TestSharedExecutionDeterministic(t *testing.T) {
	a := sharedRunCounts(t, 42)
	b := sharedRunCounts(t, 42)
	if a != b {
		t.Fatalf("same-seed shared runs diverged:\n%v\n%v", a, b)
	}
}

// TestSharedInstanceMigrationFlipsSubscribers migrates the shared
// operator through the owning circuit mid-stream and requires the
// consumer's view of the instance to flip at cutover, with zero tuple
// loss on both circuits.
func TestSharedInstanceMigrationFlipsSubscribers(t *testing.T) {
	f := newSharedFixture(t, 43)
	owner, cons := f.deployBoth(t)
	stubs := f.s.env.Topo.StubNodeIDs()
	f.s.runSim(20)

	target := stubs[4]
	m, err := f.s.engine.Migrate(f.ownerC.Query.ID, f.ownerSvc, target)
	if err != nil {
		t.Fatal(err)
	}
	f.s.runSim(20)
	select {
	case <-m.Done():
	default:
		t.Fatal("migration incomplete after 20 simulated seconds")
	}
	if got := owner.Host(f.ownerSvc); got != target {
		t.Fatalf("owner hosts shared service on %d, want %d", got, target)
	}
	if got := cons.Host(f.consSvc); got != target {
		t.Fatalf("consumer still sees shared service on %d, want %d (stale subscriber routing)", got, target)
	}

	owner.HaltProducers()
	f.s.runSim(2)
	produced := owner.TuplesProduced()
	if got := owner.Measure().TuplesOut; got != produced {
		t.Fatalf("owner delivered %d of %d across shared migration", got, produced)
	}
	if got := cons.Measure().TuplesOut; got != produced {
		t.Fatalf("consumer delivered %d of %d across shared migration", got, produced)
	}
	f.assertNoLoss(t)
}

// TestMigrateReusedServiceRejected pins the data-plane guard: a
// consumer circuit cannot migrate a service it does not execute.
func TestMigrateReusedServiceRejected(t *testing.T) {
	f := newSharedFixture(t, 44)
	f.deployBoth(t)
	if _, err := f.s.engine.Migrate(f.consC.Query.ID, f.consSvc, f.s.env.Topo.StubNodeIDs()[5]); err == nil {
		t.Fatal("engine migrated a reused service from a non-owner circuit")
	}
}

// TestSharedOwnerCancelZombie cancels the owner first: the shared
// subtree must keep executing (trimmed zombie) for the consumer, the
// owner's own sink must stop, and the last consumer's cancel must
// finally tear everything down.
func TestSharedOwnerCancelZombie(t *testing.T) {
	f := newSharedFixture(t, 45)
	owner, cons := f.deployBoth(t)
	f.s.runSim(30)

	if err := f.s.engine.Stop(f.ownerC.Query.ID); err != nil {
		t.Fatal(err)
	}
	st := f.s.engine.SharedStats()
	if st.Zombies != 1 || st.Instances != 1 || st.Subscribers != 1 {
		t.Fatalf("SharedStats after owner cancel = %+v, want zombie provider with 1 subscriber", st)
	}

	ownerOut := owner.Measure().TuplesOut
	consOut := cons.Measure().TuplesOut
	f.s.runSim(30)
	if got := owner.Measure().TuplesOut; got != ownerOut {
		t.Fatalf("cancelled owner's sink still receiving: %d -> %d", ownerOut, got)
	}
	if got := cons.Measure().TuplesOut; got <= consOut {
		t.Fatalf("consumer starved after owner cancel: %d -> %d", consOut, got)
	}

	// Quiesce the zombie's producers through the retained handle, then
	// release the last subscriber: the zombie must collapse.
	owner.HaltProducers()
	f.s.runSim(2)
	produced := owner.TuplesProduced()
	if got := cons.Measure().TuplesOut; got != produced {
		t.Fatalf("consumer delivered %d of %d across owner cancel", got, produced)
	}
	if err := f.s.engine.Stop(f.consC.Query.ID); err != nil {
		t.Fatal(err)
	}
	if st := f.s.engine.SharedStats(); st != (SharedStats{}) {
		t.Fatalf("SharedStats after last consumer cancel = %+v, want all zero", st)
	}
	f.s.runSim(10)
	f.assertNoLoss(t)
}

// TestSharedLastConsumerCancel cancels the consumer while the owner
// keeps running: subscriptions must release without disturbing the
// owner's dataflow.
func TestSharedLastConsumerCancel(t *testing.T) {
	f := newSharedFixture(t, 46)
	owner, _ := f.deployBoth(t)
	f.s.runSim(30)
	owner.HaltProducers()
	f.s.runSim(2)

	if err := f.s.engine.Stop(f.consC.Query.ID); err != nil {
		t.Fatal(err)
	}
	if st := f.s.engine.SharedStats(); st != (SharedStats{}) {
		t.Fatalf("SharedStats after consumer cancel = %+v, want all zero", st)
	}
	produced := owner.TuplesProduced()
	if got := owner.Measure().TuplesOut; got != produced {
		t.Fatalf("owner delivered %d of %d after consumer cancel", got, produced)
	}
	f.assertNoLoss(t)
}

// TestSharedOwnerNodeKilled is the X12-style churn case: the shared
// operator's host is drained (live migration) and then killed; the
// subscriber must keep receiving from the new host with zero loss and
// no data ever sent to the dead node.
func TestSharedOwnerNodeKilled(t *testing.T) {
	f := newSharedFixture(t, 47)
	owner, cons := f.deployBoth(t)
	stubs := f.s.env.Topo.StubNodeIDs()
	victim := topology.NodeID(f.inst.Node)
	f.s.runSim(20)

	target := stubs[7]
	m, err := f.s.engine.Migrate(f.ownerC.Query.ID, f.ownerSvc, target)
	if err != nil {
		t.Fatal(err)
	}
	f.s.clk.Sleep(m.ScheduledEnd.Sub(f.s.clk.Now()) + time.Millisecond)
	select {
	case <-m.Done():
	default:
		t.Fatal("drain migration incomplete")
	}
	f.s.net.SetNodeDown(victim, true)
	f.s.runSim(20)

	if got := cons.Host(f.consSvc); got != target {
		t.Fatalf("consumer routed to %d after kill, want %d", got, target)
	}
	owner.HaltProducers()
	f.s.runSim(2)
	produced := owner.TuplesProduced()
	if got := cons.Measure().TuplesOut; got != produced {
		t.Fatalf("consumer delivered %d of %d across drain+kill", got, produced)
	}
	f.assertNoLoss(t)
}

// TestZombieTrimMidMigrationNoLoss cancels an owner while one of its
// *private* (non-shared) operators is mid-handoff: the zombie trim must
// cancel that migration and drain tuples already in flight toward the
// migration target — at the flipped route, not just the old host — so
// nothing counts as routing loss while the shared subtree keeps
// serving the consumer.
func TestZombieTrimMidMigrationNoLoss(t *testing.T) {
	s := newEngineSetup(t, 48)
	stubs := s.env.Topo.StubNodeIDs()
	b := &optimizer.Builder{Env: s.env}

	// Owner: source → pinned F1 → shared F2 → private F3 → sink.
	ownerPlan := passChain(3)
	if err := ownerPlan.ComputeRates(s.env.Stats); err != nil {
		t.Fatal(err)
	}
	ownerQ := query.Query{ID: 1, Consumer: stubs[9], Streams: []query.StreamID{0}}
	ownerC, err := b.Skeleton(ownerQ, ownerPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var unpinned []int
	for i, svc := range ownerC.Services {
		if !svc.Pinned && svc.Plan != nil {
			unpinned = append(unpinned, i)
		}
	}
	if len(unpinned) != 2 {
		t.Fatalf("owner has %d unpinned services, want 2", len(unpinned))
	}
	sharedSvc, privSvc := unpinned[0], unpinned[1]
	ownerC.Services[sharedSvc].Node = stubs[2]
	ownerC.Services[privSvc].Node = stubs[3]
	inst := &optimizer.ServiceInstance{
		Signature: ownerC.Services[sharedSvc].Signature,
		Node:      stubs[2],
		Owner:     ownerQ.ID,
		RefCount:  2,
	}

	// Consumer: reused F2 → own filter → sink.
	consPlan := passChain(4)
	if err := consPlan.ComputeRates(s.env.Stats); err != nil {
		t.Fatal(err)
	}
	consQ := query.Query{ID: 2, Consumer: stubs[13], Streams: []query.StreamID{0}}
	consC, err := b.Skeleton(consQ, consPlan, func(n *query.PlanNode) *optimizer.ServiceInstance {
		if n.Signature() == inst.Signature {
			return inst
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range consC.Services {
		if !svc.Pinned && svc.Plan != nil {
			svc.Node = stubs[6]
		}
	}

	owner, err := s.engine.Deploy(ownerC)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := s.engine.Deploy(consC)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(10)

	// Start migrating the private operator, then cancel the owner in
	// the same virtual instant — tuples are in flight to the flipped
	// route when the trim cancels the handoff.
	if _, err := s.engine.Migrate(ownerQ.ID, privSvc, stubs[8]); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Stop(ownerQ.ID); err != nil {
		t.Fatal(err)
	}
	if st := s.engine.SharedStats(); st.Zombies != 1 {
		t.Fatalf("SharedStats = %+v, want 1 zombie", st)
	}
	s.runSim(10)

	owner.HaltProducers()
	s.runSim(2)
	produced := owner.TuplesProduced()
	if got := cons.Measure().TuplesOut; got != produced {
		t.Fatalf("consumer delivered %d of %d across zombie trim", got, produced)
	}
	if v := s.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v (in-flight tuples to the cancelled migration target were dropped)", v)
	}
	if err := s.engine.Stop(consQ.ID); err != nil {
		t.Fatal(err)
	}
	s.runSim(5)
	if v := s.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v after full teardown", v)
	}
}
