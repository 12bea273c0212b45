package adapt

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/workload"
)

// runContinuous drives one full continuous-adaptation run on a virtual
// clock: warm-up, a deterministic schedule of mid-run load drifts, and
// a stop signal, returning the aggregated stats and final placements.
func runContinuous(t *testing.T, seed int64) (RunStats, map[query.QueryID][]topology.NodeID) {
	t.Helper()
	f := newFixture(t, seed, 5)
	f.co.Threshold = 0.3 // settle to a fixed point between drifts
	f.clk.Sleep(time.Second)

	const interval = 500 * time.Millisecond
	var targets []topology.NodeID
	for _, run := range f.runs {
		for _, s := range run.Circuit.UnpinnedServices() {
			targets = append(targets, s.Node)
		}
	}
	if len(targets) == 0 {
		t.Fatal("fixture deployed no unpinned services")
	}
	// Drift a hosting node's load mid-interval, one per round: the
	// loop's next sweep sees exactly one fresh delta-log entry.
	for i := 0; i < 4; i++ {
		n := targets[(i*3)%len(targets)]
		f.clk.AfterFunc(time.Duration(i)*interval+interval/2, func() {
			f.env.SetBackgroundLoad(n, 4.0)
		})
	}
	stop := make(chan struct{})
	f.clk.AfterFunc(4*time.Second, func() { close(stop) })

	rs, err := f.co.Run(nil, interval, stop)
	if err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, f)
	requireNoLossCounters(t, f)

	placements := make(map[query.QueryID][]topology.NodeID)
	for _, run := range f.runs {
		c := run.Circuit
		nodes := make([]topology.NodeID, len(c.Services))
		for i, s := range c.Services {
			nodes[i] = s.Node
		}
		placements[c.Query.ID] = nodes
	}
	return rs, placements
}

// TestRunContinuousDeterministic pins the continuous loop's virtual-time
// contract: two same-seed runs — live data plane, mid-run load drifts,
// incremental sweeps — produce identical statistics (settle timings
// included) and identical final placements. It also checks the loop's
// delta economics: exactly the priming round is a full sweep, every
// drift-response round plans from the delta log.
func TestRunContinuousDeterministic(t *testing.T) {
	rs1, p1 := runContinuous(t, 61)
	rs2, p2 := runContinuous(t, 61)
	if rs1 != rs2 {
		t.Fatalf("same-seed runs diverge:\n run1 %+v\n run2 %+v", rs1, rs2)
	}
	for id, nodes := range p1 {
		for i, n := range nodes {
			if p2[id][i] != n {
				t.Fatalf("same-seed final placements diverge: q%d service %d on %d vs %d", id, i, n, p2[id][i])
			}
		}
	}
	if rs1.Sweeps < 2 {
		t.Fatalf("loop completed %d sweeps, want several", rs1.Sweeps)
	}
	if rs1.FullSweeps != 1 {
		t.Fatalf("loop ran %d full sweeps, want exactly the priming one", rs1.FullSweeps)
	}
}

// TestRunQuiescesWhenClean pins the zero-delta fixed point: once the
// deployment settles and nothing drifts, every further round consumes
// an empty delta log and evaluates nothing.
func TestRunQuiescesWhenClean(t *testing.T) {
	f := newFixture(t, 67, 5)
	f.co.Threshold = 0.3
	f.clk.Sleep(time.Second)

	stop := make(chan struct{})
	f.clk.AfterFunc(4*time.Second, func() { close(stop) })
	rs, err := f.co.Run(nil, 500*time.Millisecond, stop)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Sweeps < 3 {
		t.Fatalf("loop completed %d sweeps, want several", rs.Sweeps)
	}
	last := rs.Last
	if last.FullSweep || last.DirtyNodes != 0 || last.AffectedCircuits != 0 || last.ServicesEvaluated != 0 || last.Planned != 0 {
		t.Fatalf("final round of an undisturbed loop is not quiescent: %+v", last)
	}
	requireConsistent(t, f)
	requireNoLossCounters(t, f)
}

// TestRoundEqualsBudgetedPlanThenTwoPhase pins the incremental round
// under a budget that truncates its plan. Two identical control-plane
// deployments drift alike: one runs Round, the other a full Plan, keeps
// its Budget highest-gain moves and commits them. Every round must
// select the same moves, gains to the bit, and leave the same
// placements. A truncated round leaves planned moves unexecuted, and no
// later delta need touch their circuits again, so the incremental side
// keeps up only by carrying those circuits into its next round.
func TestRoundEqualsBudgetedPlanThenTwoPhase(t *testing.T) {
	const budget = 3
	a, b := newFixture(t, 47, 12), newFixture(t, 47, 12)
	// Control plane only: the coordinator has no engine, and neither
	// fixture's clock advances, so the engines never run.
	co := &Coordinator{Dep: a.dep, Budget: budget}
	co.reopt().FullSweepFraction = 1 // stay on the delta path however large the drift
	// Record the moves the Budget rule selects; the hook applies that rule.
	var got []optimizer.Migration
	co.Select = func(plan optimizer.MigrationPlan) optimizer.MigrationPlan {
		plan = (&Coordinator{Budget: budget}).selected(plan)
		got = plan.Moves
		return plan
	}
	ro := optimizer.NewReoptimizer(b.dep)

	rngA, rngB := rand.New(rand.NewSource(101)), rand.New(rand.NewSource(101))
	// Overload every operator host: the first rounds plan more moves
	// than the budget lets through, and light drift follows.
	for _, f := range []*fixture{a, b} {
		for _, run := range f.runs {
			for _, s := range run.Circuit.UnpinnedServices() {
				f.env.SetBackgroundLoad(s.Node, 4.0)
			}
		}
	}
	churn := workload.Churn{LoadFraction: 0.05, LoadMax: 0.8}
	truncated := 0
	for round := 0; round < 8; round++ {
		workload.ApplyChurn(a.env.Topo, a.env, churn, rngA)
		workload.ApplyChurn(b.env.Topo, b.env, churn, rngB)
		rs, err := co.Round(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && rs.Sweep.FullSweep {
			t.Fatalf("round %d fell back to a full sweep", round)
		}

		plan, err := ro.Plan()
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Moves
		if len(want) > budget {
			want = append([]optimizer.Migration(nil), want...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].PredictedGain > want[j].PredictedGain })
			want = want[:budget]
			truncated++
		}
		for _, m := range want {
			tk, err := b.dep.BeginMigration(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		if len(got) != len(want) || rs.Sweep.Migrated != len(want) {
			t.Fatalf("round %d: Round selected %d moves and committed %d, the budgeted full plan %d",
				round, len(got), rs.Sweep.Migrated, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: move %d diverges:\n round %+v\n plan  %+v", round, i, got[i], want[i])
			}
		}
		for id, ca := range a.dep.Circuits() {
			cb, ok := b.dep.Circuit(id)
			if !ok {
				t.Fatalf("round %d: q%d deployed on one side only", round, id)
			}
			for i, s := range ca.Services {
				if n := cb.Services[i].Node; s.Node != n {
					t.Fatalf("round %d: q%d service %d on %d, want %d", round, id, i, s.Node, n)
				}
			}
		}
	}
	if truncated < 3 {
		t.Fatalf("the budget truncated %d of 8 rounds, want several: the test is vacuous", truncated)
	}
}
