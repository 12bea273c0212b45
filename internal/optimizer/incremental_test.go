package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/workload"
)

// incrFixture deploys a mixed workload — plain joins, aggregates, and
// multi-query reuse of a shared join — so incremental sweeps exercise
// every service kind: pinned endpoints, owned instances, reused
// placements, and ordinary operators.
func incrFixture(t *testing.T, seed int64, useDHT bool) (*Env, *Deployment, *Reoptimizer) {
	t.Helper()
	env, base := testSetup(t, seed, useDHT)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	mq := NewMultiQuery(env, reg, 1e6)
	mq.Mapper = placement.OracleMapper{Source: env}
	stubs := env.Topo.StubNodeIDs()
	specs := []struct {
		streams []query.StreamID
		agg     float64
	}{
		{[]query.StreamID{0, 1}, 0},    // owner join
		{[]query.StreamID{0, 1}, 0.15}, // reuses the join, own aggregate
		{[]query.StreamID{0, 1}, 0.3},
		{[]query.StreamID{1, 2, 3}, 0},
		{[]query.StreamID{0, 2}, 0},
		{[]query.StreamID{2, 3}, 0},
	}
	for i, sp := range specs {
		q := base
		q.ID = query.QueryID(i + 1)
		q.Streams = sp.streams
		q.AggregateFraction = sp.agg
		q.Consumer = stubs[(3+5*i)%len(stubs)]
		res, err := mq.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			t.Fatal(err)
		}
	}
	ro := NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	return env, dep, ro
}

// applyPlan walks every move through the two-phase protocol.
func applyPlan(t *testing.T, dep *Deployment, plan MigrationPlan) {
	t.Helper()
	for _, m := range plan.Moves {
		tk, err := dep.BeginMigration(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// planAndCommit plans one full sweep and commits every move: the
// control-plane re-optimization step an adaptation round takes when no
// engine runs.
func planAndCommit(t *testing.T, ro *Reoptimizer) MigrationPlan {
	t.Helper()
	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	applyPlan(t, ro.Dep, plan)
	return plan
}

// TestPlanMakesNoLiveMutations is the satellite guard for the shadow
// refactor: a planning sweep — full, incremental, or evacuation — must
// leave the live environment byte-identical: no catalog republishes, no
// load mutations, no epoch bumps, no delta-log entries, no re-bindings.
func TestPlanMakesNoLiveMutations(t *testing.T) {
	env, dep, ro := incrFixture(t, 7, true)
	// Perturb so the sweeps have real work (and the evacuation below a
	// real victim); the perturbation itself is the last allowed mutation.
	stubs := env.Topo.StubNodeIDs()
	env.SetBackgroundLoad(stubs[1], 5.0)

	cat := env.Catalog()
	if cat == nil {
		t.Fatal("fixture has no DHT catalog")
	}
	muts := cat.Mutations()
	pubs := cat.NumPublished()
	epoch := env.Epoch()
	dirty := len(env.dirty)
	before := captureState(env, dep)

	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var victim topology.NodeID
	found := false
	for _, c := range dep.Circuits() {
		for _, s := range c.Services {
			if !s.Pinned && !s.Reused && s.Plan != nil {
				victim, found = s.Node, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no movable service to evacuate")
	}
	evac, err := ro.PlanEvacuation(map[topology.NodeID]bool{victim: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 && len(evac.Moves) == 0 {
		t.Fatal("fixture planned nothing; the guards below would be vacuous")
	}

	if got := cat.Mutations(); got != muts {
		t.Fatalf("planning republished into the DHT catalog: %d mutations, want %d", got, muts)
	}
	if got := cat.NumPublished(); got != pubs {
		t.Fatalf("planning changed catalog population: %d, want %d", got, pubs)
	}
	if got := env.Epoch(); got != epoch {
		t.Fatalf("planning bumped the env epoch: %d, want %d", got, epoch)
	}
	if got := len(env.dirty); got != dirty {
		t.Fatalf("planning grew the delta log: %d entries, want %d", got, dirty)
	}

	// PlanIncremental compacts the delta log by contract (it is the
	// log's single consumer) — everything else must still be untouched.
	if _, _, err := ro.PlanIncremental(); err != nil {
		t.Fatal(err)
	}
	if got := cat.Mutations(); got != muts {
		t.Fatalf("incremental planning republished into the DHT catalog: %d mutations, want %d", got, muts)
	}
	if got := env.Epoch(); got != epoch {
		t.Fatalf("incremental planning bumped the env epoch: %d, want %d", got, epoch)
	}
	requireStateEqual(t, before, captureState(env, dep), "after Plan+PlanEvacuation+PlanIncremental")
}

// TestPlanIncrementalEquivalence is the tentpole's core contract, pinned
// over a seeded drift sequence: two identical deployments, one planned
// with full sweeps and one incrementally, must produce bit-identical
// move lists (gains included) every round and end in identical states;
// a clean round must then evaluate nothing at all.
func TestPlanIncrementalEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 23, 51} {
		envA, depA, roA := incrFixture(t, seed, false)
		envB, depB, roB := incrFixture(t, seed, false)
		// The incremental side must never bail to a full sweep on delta
		// size: equivalence should hold through the delta path itself.
		roA.FullSweepFraction = 1.0
		// Matching thresholds, wide enough that the sweep's asymmetric
		// self-charge (load counted on the incumbent, not yet the
		// candidate) cannot make near-equal hosts ping-pong forever —
		// the settle loop below needs a fixed point to reach.
		roA.ImprovementThreshold = 0.3
		roB.ImprovementThreshold = 0.3

		if _, _, err := roA.PlanIncremental(); err != nil { // prime: full by contract
			t.Fatal(err)
		}

		churnA := rand.New(rand.NewSource(seed * 101))
		churnB := rand.New(rand.NewSource(seed * 101))
		churn := workload.Churn{LoadFraction: 0.15, LoadMax: 0.8}
		for round := 0; round < 6; round++ {
			workload.ApplyChurn(envA.Topo, envA, churn, churnA)
			workload.ApplyChurn(envB.Topo, envB, churn, churnB)

			inc, st, err := roA.PlanIncremental()
			if err != nil {
				t.Fatal(err)
			}
			if st.FullSweep {
				t.Fatalf("seed %d round %d: incremental side fell back to a full sweep (%s)", seed, round, st.Reason)
			}
			full, err := roB.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if len(inc.Moves) != len(full.Moves) {
				t.Fatalf("seed %d round %d: incremental planned %d moves, full %d", seed, round, len(inc.Moves), len(full.Moves))
			}
			for i := range full.Moves {
				if inc.Moves[i] != full.Moves[i] {
					t.Fatalf("seed %d round %d: move %d diverges:\n inc  %+v\n full %+v", seed, round, i, inc.Moves[i], full.Moves[i])
				}
			}
			applyPlan(t, depA, inc)
			applyPlan(t, depB, full)
		}
		requireStateEqual(t, captureState(envB, depB), captureState(envA, depA), "after drift rounds")

		// Settle, then assert the quiescent fixed point: with no deltas
		// and no pending moves an incremental sweep touches nothing.
		for i := 0; ; i++ {
			plan, _, err := roA.PlanIncremental()
			if err != nil {
				t.Fatal(err)
			}
			applyPlan(t, depA, plan)
			if len(plan.Moves) == 0 {
				break
			}
			if i > 20 {
				t.Fatalf("seed %d: deployment did not settle", seed)
			}
		}
		plan, st, err := roA.PlanIncremental()
		if err != nil {
			t.Fatal(err)
		}
		if st.FullSweep || st.DirtyNodes != 0 || st.AffectedCircuits != 0 || plan.ServicesEvaluated != 0 || len(plan.Moves) != 0 {
			t.Fatalf("seed %d: clean round not quiescent: %+v, %d services evaluated, %d moves",
				seed, st, plan.ServicesEvaluated, len(plan.Moves))
		}
	}
}

// TestPlanIncrementalFallbackReasons pins every degeneration path to a
// full sweep: first call, oversized delta, exclude-set change, custom
// mapper, and a second consumer compacting the shared delta log past
// this planner's watermark.
func TestPlanIncrementalFallbackReasons(t *testing.T) {
	env, _, ro := incrFixture(t, 7, false)

	_, st, err := ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep || st.Reason != "first sweep" {
		t.Fatalf("first call: %+v, want full sweep (first sweep)", st)
	}

	rng := rand.New(rand.NewSource(99))
	workload.ApplyChurn(env.Topo, env, workload.Churn{LoadFraction: 0.5, LoadMax: 0.8}, rng)
	_, st, err = ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep || st.Reason != "delta too large" {
		t.Fatalf("oversized delta: %+v, want full sweep (delta too large)", st)
	}

	ro.Exclude = map[topology.NodeID]bool{env.Topo.StubNodeIDs()[0]: true}
	_, st, err = ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep || st.Reason != "exclude set changed" {
		t.Fatalf("exclude change: %+v, want full sweep (exclude set changed)", st)
	}
	// Same exclude again: no fallback.
	_, st, err = ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSweep {
		t.Fatalf("stable exclude: unexpected full sweep (%s)", st.Reason)
	}
	ro.Exclude = nil

	ro.Mapper = placement.VectorOnlyMapper{Source: env}
	_, st, err = ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep || st.Reason != "custom mapper" {
		t.Fatalf("custom mapper: %+v, want full sweep (custom mapper)", st)
	}
	ro.Mapper = placement.OracleMapper{Source: env}

	// A second consumer on the same deployment compacts the log past the
	// first consumer's watermark; the first must notice and re-prime.
	_, _, err = ro.PlanIncremental() // re-establish ro's watermark
	if err != nil {
		t.Fatal(err)
	}
	ro2 := NewReoptimizer(ro.Dep)
	ro2.Mapper = placement.OracleMapper{Source: env}
	workload.ApplyChurn(env.Topo, env, workload.Churn{LoadFraction: 0.05, LoadMax: 0.8}, rng)
	if _, _, err := ro2.PlanIncremental(); err != nil { // compacts through the churn epoch
		t.Fatal(err)
	}
	_, st, err = ro.PlanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep || st.Reason != "delta log compacted past watermark" {
		t.Fatalf("stolen log: %+v, want full sweep (delta log compacted past watermark)", st)
	}
}

// TestSweepCostsSharedConsumersAgainstMovedOwner is the regression test
// for mid-sweep shared-service mis-costing: when a sweep accepts a move
// of an instance's owning service, consumer circuits evaluated later in
// the same sweep must be costed against the instance's new host, not
// its stale one. The sequential replay below recomputes every move's
// gains on a fresh shadow with owner-move propagation applied; if the
// sweep had costed consumers against stale hosts, their recorded gains
// could not match.
func TestSweepCostsSharedConsumersAgainstMovedOwner(t *testing.T) {
	env, dep, ro := incrFixture(t, 3, false)
	ro.ImprovementThreshold = 0.01

	// Find the shared join: a reused placement in some consumer circuit,
	// and the executing service of the same signature in its owner.
	var ownerID query.QueryID
	ownerSvc := -1
	var instNode topology.NodeID
	var sig string
	for _, c := range dep.Circuits() {
		for _, s := range c.Services {
			if s.Reused {
				sig = s.Signature
			}
		}
	}
	if sig == "" {
		t.Fatal("fixture deployed no reused service")
	}
	for id, c := range dep.Circuits() {
		for i, s := range c.Services {
			if !s.Reused && s.Plan != nil && s.Signature == sig {
				ownerID, ownerSvc, instNode = id, i, s.Node
			}
		}
	}
	if ownerSvc < 0 {
		t.Fatalf("no owner found for shared signature %q", sig)
	}
	env.SetBackgroundLoad(instNode, 8)

	plan, err := ro.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ownerAt := -1
	consumerAfter := false
	for i, m := range plan.Moves {
		if m.Query == ownerID && m.Service == ownerSvc {
			ownerAt = i
		} else if ownerAt >= 0 && m.Query != ownerID {
			consumerAfter = true
		}
	}
	if ownerAt < 0 {
		t.Fatal("overloading the instance host did not move the owning service; tune the fixture seed")
	}
	if !consumerAfter {
		t.Fatal("no consumer-circuit move follows the owner's; the propagation path is not exercised")
	}

	// Sequential replay: reproduce the sweep's in-shadow evaluation
	// contexts move by move and check the recorded gains to float
	// precision.
	sh := NewShadow(env)
	b := &Builder{Env: env}
	model := CoordLatency{Env: env}
	for i, m := range plan.Moves {
		c, ok := dep.Circuit(m.Query)
		if !ok {
			t.Fatalf("move %d targets unknown circuit %d", i, m.Query)
		}
		if err := b.placeVirtualAs(c, placement.Relaxation{}, sh.NodeOf); err != nil {
			t.Fatal(err)
		}
		s := c.Services[m.Service]
		if got := sh.NodeOf(s); got != m.From {
			t.Fatalf("move %d: replay finds service on node %d, move says From %d", i, got, m.From)
		}
		oldCost := shadowServiceCost(sh, c, m.Service, model)
		oldUsage := shadowIncidentUsage(sh, c, m.Service, model)
		sh.Rebind(s, m.To)
		newCost := shadowServiceCost(sh, c, m.Service, model)
		sh.ShiftLoad(m.From, m.To, s.InRate)
		ro.propagateRebind(sh, c, s, m.To)
		newUsage := shadowIncidentUsage(sh, c, m.Service, model)
		if g := oldCost - newCost; math.Abs(g-m.PredictedGain) > 1e-9 {
			t.Fatalf("move %d (%+v): replayed predicted gain %v, recorded %v", i, m, g, m.PredictedGain)
		}
		if g := oldUsage - newUsage; math.Abs(g-m.UsageGain) > 1e-9 {
			t.Fatalf("move %d (%+v): replayed usage gain %v, recorded %v", i, m, g, m.UsageGain)
		}
	}

	applyPlan(t, dep, plan)
	requireNoStaleReuse(t, dep)
}
