package optimizer

import (
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// TestProblemForReusesScratch guards the ROADMAP "builder problem-graph
// churn" fix: once a Builder's scratch buffers are warm, converting a
// circuit into a placement problem must not allocate at all, regardless
// of how many candidate plans the optimizer walks.
func TestProblemForReusesScratch(t *testing.T) {
	env, q := testSetup(t, 5, false)
	enum := plan.NewEnumerator(env.Stats)
	plans, err := enum.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Env: env}
	skels := make([]*Circuit, 0, len(plans))
	for _, p := range plans {
		c, err := b.Skeleton(q, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		skels = append(skels, c)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		c := skels[i%len(skels)]
		i++
		prob := b.problemFor(c, nil)
		if len(prob.Vertices) != len(c.Services) {
			t.Fatalf("problem shape wrong: %d vertices for %d services", len(prob.Vertices), len(c.Services))
		}
	})
	if allocs > 0 {
		t.Fatalf("problemFor = %.1f allocs/op after warm-up, want 0 (scratch regression)", allocs)
	}
}

// TestProblemForScratchMatchesFresh pins correctness of the reuse: a
// scratch-built problem must place identically to one built by a fresh
// Builder, including after the scratch was dirtied by a larger circuit.
func TestProblemForScratchMatchesFresh(t *testing.T) {
	env, q := testSetup(t, 6, false)
	enum := plan.NewEnumerator(env.Stats)
	plans, err := enum.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	shared := &Builder{Env: env}
	placer := placement.Relaxation{}
	for _, p := range plans[:minInt(6, len(plans))] {
		want, err := place(t, &Builder{Env: env}, q, p, placer)
		if err != nil {
			t.Fatal(err)
		}
		got, err := place(t, shared, q, p, placer)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Services) != len(got.Services) {
			t.Fatal("service counts diverge")
		}
		for i := range want.Services {
			w, g := want.Services[i].Virtual, got.Services[i].Virtual
			if len(w) != len(g) {
				t.Fatalf("service %d: coord dims diverge", i)
			}
			for k := range w {
				if w[k] != g[k] {
					t.Fatalf("service %d dim %d: scratch placement %v != fresh %v", i, k, g[k], w[k])
				}
			}
		}
	}
}

func place(t *testing.T, b *Builder, q query.Query, p *query.PlanNode, placer placement.VirtualPlacer) (*Circuit, error) {
	t.Helper()
	c, err := b.Skeleton(q, p, nil)
	if err != nil {
		return nil, err
	}
	if err := b.PlaceVirtual(c, placer); err != nil {
		return nil, err
	}
	return c, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
