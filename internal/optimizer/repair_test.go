package optimizer

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// TestTicketDeadlineExpiryAborts: a ticket committed past its deadline
// must abort instead — returning the target's provisional charge so
// the load accounting lands exactly where it was before Begin.
func TestTicketDeadlineExpiryAborts(t *testing.T) {
	env, dep, ro := migrationFixture(t, 41)
	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned: the seed-41 fixture must overload a host that a move relieves")
	}
	m := plan.Moves[0]
	before := captureState(env, dep)

	tk, err := dep.BeginMigration(m)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	tk.Deadline = t0.Add(time.Second)
	if tk.Expired(t0) {
		t.Fatal("ticket expired before its deadline")
	}
	if err := tk.CommitAt(t0.Add(2 * time.Second)); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("CommitAt past deadline = %v, want ErrTicketExpired", err)
	}
	requireStateEqual(t, before, captureState(env, dep), "after expired commit")
	if err := tk.CommitAt(t0); err == nil {
		t.Fatal("closed ticket accepted a second CommitAt")
	}

	// Within the deadline CommitAt behaves exactly like Commit.
	tk2, err := dep.BeginMigration(m)
	if err != nil {
		t.Fatal(err)
	}
	tk2.Deadline = t0.Add(time.Second)
	if err := tk2.CommitAt(t0); err != nil {
		t.Fatalf("CommitAt before deadline = %v", err)
	}
	c, _ := dep.Circuit(m.Query)
	if c.Services[m.Service].Node != m.To {
		t.Fatal("in-deadline commit did not rebind the service")
	}
}

// adoptDep builds the adopted-owner situation: owner q1 cancels while
// consumers survive, so the instance's owner of record (the lowest-id
// consumer) holds only a Reused placement of it.
func adoptDep(t *testing.T, seed int64, nConsumers int) (*Env, *Deployment, *ServiceInstance) {
	t.Helper()
	env, dep, inst, _ := sharedDep(t, seed, nConsumers)
	if err := dep.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if inst.Owner != 2 {
		t.Fatalf("instance owner = q%d after owner cancel, want q2", inst.Owner)
	}
	return env, dep, inst
}

// TestPlanEvacuationMovesAdoptedZombies closes the un-evacuable-node
// gap: an instance whose owner of record holds only a Reused placement
// must still be planned off a victim node, marked Adopted for the data
// plane.
func TestPlanEvacuationMovesAdoptedZombies(t *testing.T) {
	env, dep, inst := adoptDep(t, 51, 2)
	_ = env
	ro := NewReoptimizer(dep)
	victim := inst.Node

	plan, err := ro.PlanEvacuation(map[topology.NodeID]bool{victim: true})
	if err != nil {
		t.Fatal(err)
	}
	var adoptedMove *Migration
	for i := range plan.Moves {
		if plan.Moves[i].Adopted {
			if adoptedMove != nil {
				t.Fatal("evacuation planned the adopted instance twice")
			}
			adoptedMove = &plan.Moves[i]
		}
	}
	if adoptedMove == nil {
		t.Fatalf("evacuation of node %d planned no move for the adopted instance (moves: %+v, unmovable: %d)",
			victim, plan.Moves, plan.Unmovable)
	}
	if adoptedMove.Query != 2 {
		t.Fatalf("adopted move belongs to q%d, want owner of record q2", adoptedMove.Query)
	}
	if adoptedMove.From != victim {
		t.Fatalf("adopted move from %d, want %d", adoptedMove.From, victim)
	}
	if adoptedMove.To == victim {
		t.Fatal("adopted move targets the victim")
	}
	if adoptedMove.InRate != inst.InRate {
		t.Fatalf("adopted move carries rate %v, want instance rate %v", adoptedMove.InRate, inst.InRate)
	}
}

// TestAdoptedMigrationCommitRebindsEverything drives the adopted move
// through the two-phase protocol and checks the instance, the
// registry, every consumer placement, and the load fixed point.
func TestAdoptedMigrationCommitRebindsEverything(t *testing.T) {
	env, dep, inst := adoptDep(t, 52, 3)
	ro := NewReoptimizer(dep)
	victim := inst.Node
	perRate := LoadPerRate

	plan, err := ro.PlanEvacuation(map[topology.NodeID]bool{victim: true})
	if err != nil {
		t.Fatal(err)
	}
	var move *Migration
	for i := range plan.Moves {
		if plan.Moves[i].Adopted {
			move = &plan.Moves[i]
		}
	}
	if move == nil {
		t.Fatal("no adopted move planned")
	}

	fromBefore, toBefore := env.Load(move.From), env.Load(move.To)
	tk, err := dep.BeginMigration(*move)
	if err != nil {
		t.Fatalf("BeginMigration(adopted) = %v", err)
	}
	if got := env.Load(move.To); math.Abs(got-(toBefore+inst.InRate*perRate)) > 1e-12 {
		t.Fatalf("target load %v after Begin, want %v", got, toBefore+inst.InRate*perRate)
	}
	if err := tk.Commit(); err != nil {
		t.Fatal(err)
	}
	if inst.Node != move.To {
		t.Fatalf("instance still on node %d after commit, want %d", inst.Node, move.To)
	}
	if got := env.Load(move.From); math.Abs(got-(fromBefore-inst.InRate*perRate)) > 1e-12 {
		t.Fatalf("source load %v after Commit, want %v", got, fromBefore-inst.InRate*perRate)
	}
	requireNoStaleReuse(t, dep)
	for id := query.QueryID(2); id <= 4; id++ {
		c, ok := dep.Circuit(id)
		if !ok {
			continue
		}
		for _, s := range c.Services {
			if s.Reused && s.ReusedFrom == inst && s.Node != move.To {
				t.Fatalf("q%d reused placement still on %d", id, s.Node)
			}
		}
	}

	// Abort path returns the charge bit-exactly.
	plan2, err := ro.PlanEvacuation(map[topology.NodeID]bool{move.To: true})
	if err != nil {
		t.Fatal(err)
	}
	var m2 *Migration
	for i := range plan2.Moves {
		if plan2.Moves[i].Adopted {
			m2 = &plan2.Moves[i]
		}
	}
	if m2 == nil {
		t.Fatal("no adopted move planned off the new host")
	}
	before := captureState(env, dep)
	tk2, err := dep.BeginMigration(*m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk2.Abort(); err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, before, captureState(env, dep), "after adopted Begin+Abort")
}

// TestNonOwnerReuseStillRejected: the adopted path must not loosen the
// non-owner guard.
func TestNonOwnerReuseStillRejected(t *testing.T) {
	env, dep, inst := adoptDep(t, 53, 2)
	c3, _ := dep.Circuit(3) // consumer, NOT the owner of record
	idx := -1
	for i, s := range c3.Services {
		if s.Reused && s.ReusedFrom == inst {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("q3 has no reused placement")
	}
	_, err := dep.BeginMigration(Migration{
		Query: 3, Service: idx, From: inst.Node,
		To: env.Topo.StubNodeIDs()[0], InRate: inst.InRate,
	})
	if err == nil {
		t.Fatal("non-owner adopted move accepted")
	}
}
