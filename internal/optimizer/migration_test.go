package optimizer

import (
	"math"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// migrationFixture deploys a few circuits and perturbs loads so a sweep
// has real moves to find.
func migrationFixture(t *testing.T, seed int64) (*Env, *Deployment, *Reoptimizer) {
	t.Helper()
	env, q := testSetup(t, seed, false)
	opt := &Integrated{Env: env, Mapper: placement.OracleMapper{Source: env}}
	dep := NewDeployment(env, nil)
	for i, streams := range [][]query.StreamID{{0, 1}, {1, 2, 3}, {0, 2}} {
		qq := q
		qq.ID = query.QueryID(i + 1)
		qq.Streams = streams
		res, err := opt.Optimize(qq)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			t.Fatal(err)
		}
	}
	ro := NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	// Load up a hosting node so the sweep wants to move something
	// (deterministic circuit order: map iteration would randomize which
	// node gets hit).
	for _, c := range dep.circuitsInOrder() {
		if u := c.UnpinnedServices(); len(u) > 0 {
			env.SetBackgroundLoad(u[0].Node, 5.0)
			break
		}
	}
	return env, dep, ro
}

// snapshotState captures everything a sweep could disturb.
type depState struct {
	loads    []float64
	bindings map[query.QueryID][]topology.NodeID
}

func captureState(env *Env, dep *Deployment) depState {
	st := depState{bindings: make(map[query.QueryID][]topology.NodeID)}
	for _, id := range env.NodeIDs() {
		st.loads = append(st.loads, env.Load(id))
	}
	for id, c := range dep.Circuits() {
		nodes := make([]topology.NodeID, len(c.Services))
		for i, s := range c.Services {
			nodes[i] = s.Node
		}
		st.bindings[id] = nodes
	}
	return st
}

func requireStateEqual(t *testing.T, want, got depState, context string) {
	t.Helper()
	for i := range want.loads {
		if math.Abs(want.loads[i]-got.loads[i]) > 1e-12 {
			t.Fatalf("%s: node %d load %v, want %v", context, i, got.loads[i], want.loads[i])
		}
	}
	for id, nodes := range want.bindings {
		for i, n := range nodes {
			if got.bindings[id][i] != n {
				t.Fatalf("%s: q%d service %d bound to %d, want %d", context, id, i, got.bindings[id][i], n)
			}
		}
	}
}

// TestPlanDoesNotMutate pins the tentpole's control-plane contract: a
// sweep that only plans must leave loads, bindings, and instances
// untouched, and planning twice must yield the identical move list.
func TestPlanDoesNotMutate(t *testing.T) {
	env, dep, ro := migrationFixture(t, 21)
	before := captureState(env, dep)
	plan1, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan1.Moves) == 0 {
		t.Fatal("fixture produced no planned moves; the invariants below would be vacuous")
	}
	requireStateEqual(t, before, captureState(env, dep), "after Plan")
	plan2, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan1.Moves) != len(plan2.Moves) {
		t.Fatalf("repeated Plan sizes differ: %d vs %d", len(plan1.Moves), len(plan2.Moves))
	}
	for i := range plan1.Moves {
		if plan1.Moves[i] != plan2.Moves[i] {
			t.Fatalf("repeated Plan diverges at move %d: %+v vs %+v", i, plan1.Moves[i], plan2.Moves[i])
		}
	}
	for _, m := range plan1.Moves {
		if m.PredictedGain <= 0 {
			t.Fatalf("planned move %+v has non-positive predicted gain", m)
		}
		if m.From == m.To {
			t.Fatalf("planned move %+v is a no-op", m)
		}
	}
}

// TestTwoPhaseChargesBothHostsInFlight verifies the in-flight accounting
// the paper's migration story needs: between Begin and Commit the load
// sits on both hosts; Commit releases the source, Abort the target.
func TestTwoPhaseChargesBothHostsInFlight(t *testing.T) {
	env, dep, ro := migrationFixture(t, 23)
	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned: the seed-23 fixture must overload a host that a move relieves")
	}
	m := plan.Moves[0]
	perRate := LoadPerRate
	fromBefore, toBefore := env.Load(m.From), env.Load(m.To)

	ticket, err := dep.BeginMigration(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Load(m.To); math.Abs(got-(toBefore+m.InRate*perRate)) > 1e-12 {
		t.Fatalf("target load %v after Begin, want %v (double charge)", got, toBefore+m.InRate*perRate)
	}
	if got := env.Load(m.From); got != fromBefore {
		t.Fatalf("source load %v changed at Begin", got)
	}
	if err := ticket.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := env.Load(m.From); math.Abs(got-(fromBefore-m.InRate*perRate)) > 1e-12 {
		t.Fatalf("source load %v after Commit, want %v", got, fromBefore-m.InRate*perRate)
	}
	if err := ticket.Commit(); err == nil {
		t.Fatal("double Commit did not error")
	}

	// Abort path: plan again and cancel.
	plan2, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Moves) > 0 {
		m2 := plan2.Moves[0]
		before := captureState(env, dep)
		tk, err := dep.BeginMigration(m2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Abort(); err != nil {
			t.Fatal(err)
		}
		requireStateEqual(t, before, captureState(env, dep), "after Begin+Abort")
	}
}

// TestMigrationFixedPoint pins the settle invariant: after a sweep's
// moves are fully committed, every node's load equals base plus exactly
// the services it now hosts — the same fixed point a from-scratch
// deployment of the migrated circuits reaches.
func TestMigrationFixedPoint(t *testing.T) {
	env, dep, ro := migrationFixture(t, 24)
	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*MigrationTicket, 0, len(plan.Moves))
	for _, m := range plan.Moves {
		tk, err := dep.BeginMigration(m)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if err := tk.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Recompute expected load per node from scratch: background base +
	// Σ hosted non-reused service input rates.
	perRate := LoadPerRate
	expected := make(map[topology.NodeID]float64)
	for _, c := range dep.Circuits() {
		for _, s := range c.NewServices() {
			expected[s.Node] += s.InRate * perRate
		}
	}
	for _, id := range env.NodeIDs() {
		base := env.Load(id) - expected[id]
		svc := expected[id]
		if got := env.Load(id); math.Abs(got-(base+svc)) > 1e-9 {
			t.Fatalf("node %d load %v, want base %v + services %v", id, got, base, svc)
		}
	}
	// The sharper check: a second sweep right after settle must find the
	// deployment at (or very near) its non-migrating fixed point — no
	// move it accepts can be an artifact of dangling double charges.
	if again := planAndCommit(t, ro); len(again.Moves) > len(plan.Moves) {
		t.Fatalf("post-settle sweep found %d migrations, more than the original %d — accounting drift", len(again.Moves), len(plan.Moves))
	}
}

// TestBeginMigrationValidates covers the guard rails.
func TestBeginMigrationValidates(t *testing.T) {
	env, dep, _ := migrationFixture(t, 25)
	_ = env
	if _, err := dep.BeginMigration(Migration{Query: 999}); err == nil {
		t.Fatal("unknown query accepted")
	}
	var anyC *Circuit
	for _, c := range dep.Circuits() {
		anyC = c
		break
	}
	if _, err := dep.BeginMigration(Migration{Query: anyC.Query.ID, Service: -1}); err == nil {
		t.Fatal("bad service index accepted")
	}
	// Pinned consumer: last service.
	consumerIdx := -1
	for i, s := range anyC.Services {
		if s.Plan == nil {
			consumerIdx = i
		}
	}
	if _, err := dep.BeginMigration(Migration{Query: anyC.Query.ID, Service: consumerIdx}); err == nil {
		t.Fatal("pinned consumer migration accepted")
	}
}
