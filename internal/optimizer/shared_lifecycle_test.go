package optimizer

import (
	"math"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// sharedDep deploys one owner circuit plus nConsumers circuits that
// each reuse the owner's root instance, returning the deployment, the
// shared instance, and the owner's executing service index.
func sharedDep(t *testing.T, seed int64, nConsumers int) (*Env, *Deployment, *ServiceInstance, int) {
	t.Helper()
	env, q := testSetup(t, seed, false)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	opt := &Integrated{Env: env, Mapper: placement.OracleMapper{Source: env}}

	owner := q
	owner.ID = 1
	owner.Streams = []query.StreamID{0, 1}
	res, err := opt.Optimize(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	rootSig := res.Circuit.Root().Signature
	var inst *ServiceInstance
	for _, i := range reg.Instances() {
		if i.Signature == rootSig {
			inst = i
		}
	}
	if inst == nil {
		t.Fatalf("owner deployment registered no instance for %q", rootSig)
	}

	b := &Builder{Env: env}
	stubs := env.Topo.StubNodeIDs()
	for k := 0; k < nConsumers; k++ {
		cq := owner
		cq.ID = query.QueryID(2 + k)
		cq.Consumer = stubs[(3+5*k)%len(stubs)]
		cc, err := b.Skeleton(cq, res.Circuit.Plan, func(n *query.PlanNode) *ServiceInstance {
			if n.Signature() == inst.Signature {
				return inst
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Deploy(cc); err != nil {
			t.Fatal(err)
		}
	}

	ownerSvc := -1
	for i, s := range res.Circuit.Services {
		if !s.Reused && s.Signature == inst.Signature && s.Plan != nil {
			ownerSvc = i
		}
	}
	if ownerSvc < 0 {
		t.Fatal("owner circuit has no executing service for the instance")
	}
	return env, dep, inst, ownerSvc
}

// requireNoStaleReuse is the acceptance invariant: after any migration,
// every circuit that reuses an instance must agree with the instance on
// its node — no stale placement anywhere.
func requireNoStaleReuse(t *testing.T, dep *Deployment) {
	t.Helper()
	for id, c := range dep.Circuits() {
		for i, s := range c.Services {
			if s.Reused && s.ReusedFrom != nil && s.Node != s.ReusedFrom.Node {
				t.Fatalf("q%d service %d placed on %d but instance lives on %d (stale reuse placement)",
					id, i, s.Node, s.ReusedFrom.Node)
			}
		}
	}
}

// TestSharedCommitRebindsConsumers pins the stale-placement regression:
// committing a migration of a shared instance must re-bind the
// placement of every consumer circuit, not just the owner and the
// registry entry.
func TestSharedCommitRebindsConsumers(t *testing.T) {
	env, dep, inst, ownerSvc := sharedDep(t, 11, 2)
	ownerC, _ := dep.Circuit(1)
	from := inst.Node
	var to topology.NodeID
	for _, n := range env.Topo.StubNodeIDs() {
		if n != from {
			to = n
			break
		}
	}
	ticket, err := dep.BeginMigration(Migration{
		Query: 1, Service: ownerSvc, From: from, To: to,
		InRate: ownerC.Services[ownerSvc].InRate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ticket.Commit(); err != nil {
		t.Fatal(err)
	}
	if inst.Node != to {
		t.Fatalf("instance on %d after commit, want %d", inst.Node, to)
	}
	if len(inst.Coord) == 0 || env.Space().Distance(inst.Coord, env.Point(to)) != 0 {
		t.Fatalf("instance coordinate not re-bound to node %d's point", to)
	}
	// Consumers' latency accounting reads the instance's recorded
	// upstream latency; it must be recomputed against the new host, not
	// left at the value captured when the owner deployed.
	wantUp := ownerC.upstreamLatency(ownerSvc, TrueLatency{Topo: env.Topo})
	if math.Abs(inst.UpstreamLatency-wantUp) > 1e-12 {
		t.Fatalf("instance UpstreamLatency = %v after commit, want %v recomputed at node %d",
			inst.UpstreamLatency, wantUp, to)
	}
	for _, id := range []query.QueryID{2, 3} {
		c, _ := dep.Circuit(id)
		for i, s := range c.Services {
			if s.Reused && s.Node != to {
				t.Fatalf("consumer q%d service %d still bound to %d, want %d", id, i, s.Node, to)
			}
		}
	}
	requireNoStaleReuse(t, dep)
}

// TestBeginMigrationRejectsReused pins the non-owner guard: a plan move
// naming a consumer circuit's reused service must be refused even when
// the service is (incorrectly) unpinned.
func TestBeginMigrationRejectsReused(t *testing.T) {
	env, dep, inst, _ := sharedDep(t, 12, 1)
	consC, _ := dep.Circuit(2)
	reusedIdx := -1
	for i, s := range consC.Services {
		if s.Reused {
			reusedIdx = i
		}
	}
	if reusedIdx < 0 {
		t.Fatal("consumer has no reused service")
	}
	consC.Services[reusedIdx].Pinned = false // simulate a buggy builder
	_, err := dep.BeginMigration(Migration{
		Query: 2, Service: reusedIdx, From: inst.Node,
		To: env.Topo.StubNodeIDs()[0], InRate: inst.InRate,
	})
	if err == nil || !strings.Contains(err.Error(), "owner") {
		t.Fatalf("BeginMigration = %v, want non-owner rejection", err)
	}
}

// TestSweepsSkipReusedServices bars re-optimization sweeps from ever
// proposing a move of a service the circuit does not own, even when the
// reused service is unpinned and its host is overloaded bait.
func TestSweepsSkipReusedServices(t *testing.T) {
	env, dep, inst, _ := sharedDep(t, 13, 2)
	for id := query.QueryID(2); id <= 3; id++ {
		c, _ := dep.Circuit(id)
		for _, s := range c.Services {
			if s.Reused {
				s.Pinned = false
			}
		}
	}
	env.SetBackgroundLoad(inst.Node, 5.0) // make the host repellent

	ro := NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	evac, err := ro.PlanEvacuation(map[topology.NodeID]bool{inst.Node: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, moves := range [][]Migration{plan.Moves, evac.Moves} {
		for _, m := range moves {
			c, _ := dep.Circuit(m.Query)
			if c.Services[m.Service].Reused {
				t.Fatalf("sweep proposed moving reused service q%d/%d", m.Query, m.Service)
			}
		}
	}
	// The consumers' reused leaves sit on the victim, but only the
	// owner's executing service should appear in the evacuation plan.
	for _, m := range evac.Moves {
		if m.Query != 1 {
			t.Fatalf("evacuation plans a move for consumer q%d; instance moves belong to the owner", m.Query)
		}
	}
	if evac.Unmovable != 0 {
		t.Fatalf("evacuation counted %d unmovable; reused leaves move with their owner", evac.Unmovable)
	}
}

// TestCancelOwnerTransfersOwnership walks the full shared-instance
// lifecycle out of order: the owner cancels first, ownership hops to
// each surviving consumer in turn, and only the last release tears the
// instance down and returns its load.
func TestCancelOwnerTransfersOwnership(t *testing.T) {
	env, dep, inst, _ := sharedDep(t, 14, 2)
	node := inst.Node
	loadBefore := env.Load(node)

	if inst.RefCount != 3 {
		t.Fatalf("RefCount = %d, want 3 (owner + 2 consumers)", inst.RefCount)
	}
	if err := dep.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if inst.RefCount != 2 {
		t.Fatalf("RefCount after owner cancel = %d, want 2", inst.RefCount)
	}
	if inst.Owner != 2 {
		t.Fatalf("ownership handed to q%d, want lowest surviving consumer q2", inst.Owner)
	}
	found := false
	for _, i := range dep.Registry.Instances() {
		if i == inst {
			found = true
		}
	}
	if !found {
		t.Fatal("instance unregistered while consumers remain")
	}
	if got := env.Load(node); got < loadBefore-1e-12 {
		t.Fatalf("instance load released early: %v -> %v", loadBefore, got)
	}

	if err := dep.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if inst.RefCount != 1 || inst.Owner != 3 {
		t.Fatalf("after second cancel: RefCount=%d Owner=%d, want 1/q3", inst.RefCount, inst.Owner)
	}

	if err := dep.Cancel(3); err != nil {
		t.Fatal(err)
	}
	if inst.RefCount != 0 {
		t.Fatalf("RefCount after last release = %d", inst.RefCount)
	}
	for _, i := range dep.Registry.Instances() {
		if i == inst {
			t.Fatal("instance still registered after last release")
		}
	}
	if dep.Registry.Len() != 0 {
		t.Fatalf("registry holds %d instances after all cancels", dep.Registry.Len())
	}
	// Every circuit gone: every node's load must be back at background.
	requireBackgroundLoads(t, env)
}

// TestCancelConsumerFirst is the in-order half of the lifecycle:
// consumers release before the owner, and the owner's final cancel
// tears the instance down.
func TestCancelConsumerFirst(t *testing.T) {
	env, dep, inst, _ := sharedDep(t, 15, 2)
	if err := dep.Cancel(3); err != nil {
		t.Fatal(err)
	}
	if inst.RefCount != 2 || inst.Owner != 1 {
		t.Fatalf("after consumer cancel: RefCount=%d Owner=%d, want 2/q1", inst.RefCount, inst.Owner)
	}
	if err := dep.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if err := dep.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if dep.Registry.Len() != 0 {
		t.Fatalf("registry holds %d instances after all cancels", dep.Registry.Len())
	}
	requireBackgroundLoads(t, env)
}

// requireBackgroundLoads asserts every node's load has returned to its
// background component (within float add/remove round-trip residue).
func requireBackgroundLoads(t *testing.T, env *Env) {
	t.Helper()
	for _, n := range env.NodeIDs() {
		if got, want := env.Load(n), env.base[n]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("node %d load %v after teardown, want background %v", n, got, want)
		}
	}
}
