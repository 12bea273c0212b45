package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// deployWorstPlan deploys the query's worst enumerated plan, giving the
// rewriter something to fix.
func deployWorstPlan(t *testing.T, env *Env, q query.Query) *Deployment {
	t.Helper()
	enum := plan.NewEnumerator(env.Stats)
	plans, err := enum.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	worst := plans[len(plans)-1]
	strat := RelaxationStrategy{Mapper: placement.OracleMapper{Source: env}}
	c, err := strat.PlaceCircuit(env, q, worst)
	if err != nil {
		t.Fatal(err)
	}
	dep := NewDeployment(env, nil)
	if err := dep.Deploy(c); err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestRewriteStepImprovesBadPlan(t *testing.T) {
	improvedSomewhere := false
	for seed := int64(30); seed < 36; seed++ {
		env, q := testSetup(t, seed, false)
		dep := deployWorstPlan(t, env, q)
		truth := TrueLatency{Topo: env.Topo}
		before := dep.TotalUsage(truth)

		ro := NewReoptimizer(dep)
		ro.Mapper = placement.OracleMapper{Source: env}
		ro.Model = truth
		stats, err := ro.RewriteStep()
		if err != nil {
			t.Fatal(err)
		}
		if stats.CircuitsEvaluated != 1 {
			t.Fatalf("evaluated %d circuits, want 1", stats.CircuitsEvaluated)
		}
		if stats.VariantsCosted == 0 {
			t.Fatal("no variants costed for a 4-way join")
		}
		after := dep.TotalUsage(truth)
		if after > before+1e-9 {
			t.Fatalf("seed %d: rewrite increased usage %v -> %v", seed, before, after)
		}
		if stats.Rewrites > 0 && after < before {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Fatal("rewriting never improved a worst-plan deployment across seeds")
	}
}

func TestRewriteStepConvergesToFixpoint(t *testing.T) {
	env, q := testSetup(t, 40, false)
	dep := deployWorstPlan(t, env, q)
	ro := NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	ro.Model = TrueLatency{Topo: env.Topo}
	for i := 0; i < 10; i++ {
		stats, err := ro.RewriteStep()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rewrites == 0 {
			return // fixpoint
		}
	}
	t.Fatal("rewriting did not converge within 10 sweeps")
}

func TestRewriteStepSkipsReusedCircuits(t *testing.T) {
	env, q := testSetup(t, 41, false)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	mq := NewMultiQuery(env, reg, 1e18)
	r1, err := mq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Deploy(r1.Circuit); err != nil {
		t.Fatal(err)
	}
	q2 := q
	q2.ID = 2
	q2.Consumer = env.Topo.StubNodeIDs()[0]
	r2, err := mq.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedServices == 0 {
		t.Fatal("no reuse: the seed-41 fixture's second query must reuse a service of the first")
	}
	if err := dep.Deploy(r2.Circuit); err != nil {
		t.Fatal(err)
	}
	ro := NewReoptimizer(dep)
	stats, err := ro.RewriteStep()
	if err != nil {
		t.Fatal(err)
	}
	// Only the non-reusing circuit may be evaluated.
	if stats.CircuitsEvaluated > 1 {
		t.Fatalf("evaluated %d circuits; reusing circuit must be skipped", stats.CircuitsEvaluated)
	}
}

func TestRewriteStepKeepsDeploymentConsistent(t *testing.T) {
	env, q := testSetup(t, 42, false)
	dep := deployWorstPlan(t, env, q)
	ro := NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	ro.Model = TrueLatency{Topo: env.Topo}
	if _, err := ro.RewriteStep(); err != nil {
		t.Fatal(err)
	}
	if dep.NumDeployed() != 1 {
		t.Fatalf("NumDeployed = %d after rewrite", dep.NumDeployed())
	}
	c, ok := dep.Circuit(q.ID)
	if !ok {
		t.Fatal("circuit lost its query ID through rewrite")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("rewritten circuit invalid: %v", err)
	}
	// Registry instances must match the circuit's current services.
	if dep.Registry.Len() != len(c.NewServices()) {
		t.Fatalf("registry %d instances, circuit has %d services",
			dep.Registry.Len(), len(c.NewServices()))
	}
}

// TestRewriteStepSweepsInIDOrder: every swap changes the loads later
// rewrites map against, so the sweep order is part of the answer.
// RewriteStep on identically built deployments must give the same stats
// and leave the same circuits, every time, whatever order the
// deployment's circuit map iterates in.
func TestRewriteStepSweepsInIDOrder(t *testing.T) {
	sweep := func() (RewriteStats, []string) {
		env, _ := testSetup(t, 30, false)
		dep := NewDeployment(env, nil)
		stubs := env.Topo.StubNodeIDs()
		sets := [][]query.StreamID{{0, 1, 2, 3}, {1, 2, 3}, {0, 2, 3}, {3, 1, 0, 2}}
		for i := 0; i < 16; i++ {
			q := query.Query{ID: query.QueryID(i + 1), Consumer: stubs[(i*5)%len(stubs)], Streams: sets[i%len(sets)]}
			plans, err := plan.NewEnumerator(env.Stats).Enumerate(q)
			if err != nil {
				t.Fatal(err)
			}
			c, err := RelaxationStrategy{Mapper: placement.OracleMapper{Source: env}}.PlaceCircuit(env, q, plans[len(plans)-1])
			if err != nil {
				t.Fatal(err)
			}
			if err := dep.Deploy(c); err != nil {
				t.Fatal(err)
			}
		}
		ro := NewReoptimizer(dep)
		ro.Mapper = placement.OracleMapper{Source: env}
		stats, err := ro.RewriteStep()
		if err != nil {
			t.Fatal(err)
		}
		var moves []string
		for i := 1; i <= 16; i++ {
			c, _ := dep.Circuit(query.QueryID(i))
			move := c.Plan.Signature()
			for _, s := range c.Services {
				move += fmt.Sprintf(" %d", s.Node)
			}
			moves = append(moves, move)
		}
		return stats, moves
	}
	stats, moves := sweep()
	if stats.Rewrites < 2 {
		t.Fatalf("fixture: the sweep rewrote %d circuits, want at least 2 (%+v)", stats.Rewrites, stats)
	}
	for run := 1; run < 20; run++ {
		if s, m := sweep(); s != stats || !slices.Equal(m, moves) {
			t.Fatalf("run %d: stats %+v and circuits %q, first run %+v and %q", run, s, m, stats, moves)
		}
	}
}
