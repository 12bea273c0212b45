package plan

import (
	"testing"

	"github.com/hourglass/sbon/internal/query"
)

func join(l, r *query.PlanNode) *query.PlanNode { return query.NewJoin(l, r) }
func src(s query.StreamID) *query.PlanNode      { return &query.PlanNode{Kind: query.KindSource, Stream: s} }

func filter(child *query.PlanNode, sel float64) *query.PlanNode {
	return &query.PlanNode{Kind: query.KindFilter, Sel: sel, Left: child}
}

func aggregate(child *query.PlanNode, frac float64) *query.PlanNode {
	return &query.PlanNode{Kind: query.KindAggregate, Sel: frac, Left: child}
}

// services returns the interior (non-source) nodes of the tree in
// post-order.
func services(n *query.PlanNode) []*query.PlanNode {
	var out []*query.PlanNode
	var walk func(p *query.PlanNode)
	walk = func(p *query.PlanNode) {
		if p == nil || p.Kind == query.KindSource {
			return
		}
		walk(p.Left)
		walk(p.Right)
		out = append(out, p)
	}
	walk(n)
	return out
}

func TestRotationsThreeLeaves(t *testing.T) {
	// ((0⋈1)⋈2) has exactly the two alternative shapes over three leaves.
	root := join(join(src(0), src(1)), src(2))
	rots := Rotations(root)
	if len(rots) != 2 {
		t.Fatalf("rotations = %d, want 2", len(rots))
	}
	want := map[string]bool{
		join(join(src(0), src(2)), src(1)).Signature(): true,
		join(join(src(1), src(2)), src(0)).Signature(): true,
	}
	for _, r := range rots {
		if !want[r.Signature()] {
			t.Fatalf("unexpected rotation %s", r)
		}
	}
}

func TestRotationsExcludeOriginal(t *testing.T) {
	root := join(join(src(0), src(1)), src(2))
	for _, r := range Rotations(root) {
		if r.Signature() == root.Signature() {
			t.Fatal("original tree returned as rotation")
		}
	}
}

func TestRotationsRightChild(t *testing.T) {
	// 0 ⋈ (1⋈2): rotations must cover the same 3-leaf shape family.
	root := join(src(0), join(src(1), src(2)))
	rots := Rotations(root)
	if len(rots) != 2 {
		t.Fatalf("rotations = %d, want 2", len(rots))
	}
}

func TestRotationsLeavesNonJoinUnitsAtomic(t *testing.T) {
	// Filters above sources travel with their source.
	f0 := filter(src(0), 0.5)
	root := join(join(f0, src(1)), src(2))
	for _, r := range Rotations(root) {
		filters := 0
		for _, s := range services(r) {
			if s.Kind == query.KindFilter {
				filters++
				under := s.Left
				if under.Kind != query.KindSource || under.Stream != 0 {
					t.Fatalf("filter detached from its source in %s", r)
				}
			}
		}
		if filters != 1 {
			t.Fatalf("rotation %s has %d filters, want 1", r, filters)
		}
	}
}

func TestRotationsPreserveAggregateRoot(t *testing.T) {
	root := aggregate(join(join(src(0), src(1)), src(2)), 0.1)
	rots := Rotations(root)
	if len(rots) == 0 {
		t.Fatal("no rotations under aggregate")
	}
	for _, r := range rots {
		if r.Kind != query.KindAggregate {
			t.Fatalf("rotation lost the aggregate root: %s", r)
		}
	}
}

func TestRotationsPreserveLeafSet(t *testing.T) {
	root := join(join(src(0), src(1)), join(src(2), src(3)))
	for _, r := range Rotations(root) {
		leaves := r.Leaves()
		if len(leaves) != 4 {
			t.Fatalf("rotation %s has %d leaves", r, len(leaves))
		}
		seen := map[query.StreamID]bool{}
		for _, l := range leaves {
			seen[l] = true
		}
		for s := query.StreamID(0); s < 4; s++ {
			if !seen[s] {
				t.Fatalf("rotation %s lost stream %d", r, s)
			}
		}
	}
}

func TestRotationsFourLeafChainCount(t *testing.T) {
	// ((0⋈1)⋈2)⋈3: top edge gives 2, inner edge gives 2 (each lifted to a
	// distinct full tree) — all four distinct.
	root := join(join(join(src(0), src(1)), src(2)), src(3))
	rots := Rotations(root)
	if len(rots) != 4 {
		t.Fatalf("rotations = %d, want 4", len(rots))
	}
}

func TestRotationsRatesComputable(t *testing.T) {
	c := testCatalog(t, 4, 99)
	root := join(join(src(0), src(1)), join(src(2), src(3)))
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	for _, r := range Rotations(root) {
		if err := r.ComputeRates(c); err != nil {
			t.Fatalf("rotation %s rates: %v", r, err)
		}
		if r.OutRate <= 0 {
			t.Fatalf("rotation %s has rate %v", r, r.OutRate)
		}
	}
}

func TestRotationsNilAndLeaf(t *testing.T) {
	if got := Rotations(nil); got != nil {
		t.Fatal("nil root should yield nil")
	}
	if got := Rotations(src(0)); len(got) != 0 {
		t.Fatal("leaf should yield no rotations")
	}
	if got := Rotations(join(src(0), src(1))); len(got) != 0 {
		t.Fatal("single join should yield no rotations")
	}
}

// Repeated rotation exploration must be able to reach the rate-optimal
// tree from a bad start (hill-climbing completeness on small instances).
func TestRotationHillClimbReachesOptimum(t *testing.T) {
	c := testCatalog(t, 4, 123)
	q := query.Query{ID: 1, Streams: streams(4)}
	e := NewEnumerator(c)
	best, err := e.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	// Start from the worst enumerated plan.
	all, err := e.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	cur := all[len(all)-1].Clone()
	for iter := 0; iter < 20; iter++ {
		improved := false
		for _, r := range Rotations(cur) {
			if err := r.ComputeRates(c); err != nil {
				t.Fatal(err)
			}
			if r.IntermediateRate() < cur.IntermediateRate()-1e-9 {
				cur = r
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	// Hill climbing may stop at a local optimum, but on random 4-stream
	// catalogs it should land within 25% of the global optimum.
	if cur.IntermediateRate() > best.IntermediateRate()*1.25 {
		t.Fatalf("hill climb stuck at %v, optimum %v", cur.IntermediateRate(), best.IntermediateRate())
	}
}
