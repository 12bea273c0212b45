package costindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// randSpace builds a space with 1-3 vector dims and 0-2 scalar dims with
// varied weighting functions.
func randSpace(rng *rand.Rand) *costspace.Space {
	s := &costspace.Space{VectorDims: 1 + rng.Intn(3)}
	weights := []costspace.WeightFunc{
		costspace.SquaredWeight{Scale: 1 + rng.Float64()*200},
		costspace.LinearWeight{Scale: 1 + rng.Float64()*50},
		costspace.HingeWeight{Threshold: rng.Float64() * 0.5, Scale: 1 + rng.Float64()*100},
		costspace.ExponentialWeight{Scale: 1 + rng.Float64()*10, Rate: 1 + rng.Float64()*3},
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Scalars = append(s.Scalars, costspace.ScalarDim{
			Name:   "s",
			Weight: weights[rng.Intn(len(weights))],
		})
	}
	return s
}

// randPoints draws n points. Grid mode quantizes coordinates onto small
// integers so exact distance ties (3-4-5 style and duplicated points)
// actually occur and exercise the tie-breaking paths.
func randPoints(rng *rand.Rand, space *costspace.Space, n int, grid bool) []costspace.Point {
	pts := make([]costspace.Point, n)
	for i := range pts {
		vec := make(vivaldi.Coord, space.VectorDims)
		for j := range vec {
			if grid {
				vec[j] = float64(rng.Intn(7))
			} else {
				vec[j] = rng.NormFloat64() * 40
			}
		}
		raw := make([]float64, len(space.Scalars))
		for j := range raw {
			if grid {
				raw[j] = float64(rng.Intn(3)) / 2
			} else {
				raw[j] = rng.Float64()
			}
		}
		pts[i] = space.NewPoint(vec, raw)
	}
	return pts
}

func randTarget(rng *rand.Rand, space *costspace.Space, grid bool) costspace.Point {
	vec := make(vivaldi.Coord, space.VectorDims)
	for j := range vec {
		if grid {
			vec[j] = float64(rng.Intn(7))
		} else {
			vec[j] = rng.NormFloat64() * 40
		}
	}
	return space.IdealPoint(vec)
}

// brute is the reference: a linear scan over current points (patches
// applied) in id order, exactly like the scans the index replaces.
type brute struct {
	space *costspace.Space
	pts   []costspace.Point
}

func (b brute) nearest(target costspace.Point, ed int, exclude func(int32) bool) (int32, float64, bool) {
	bestID, bestD, found := int32(0), 0.0, false
	for i, p := range b.pts {
		if exclude != nil && exclude(int32(i)) {
			continue
		}
		var d float64
		if ed == b.space.Dims() {
			d = b.space.Distance(target, p)
		} else {
			d = b.space.VectorDistance(target, p)
		}
		if !found || d < bestD {
			bestID, bestD, found = int32(i), d, true
		}
	}
	return bestID, bestD, found
}

func (b brute) within(target costspace.Point, r float64, exclude func(int32) bool) []Neighbor {
	var all []Neighbor
	for i, p := range b.pts {
		if exclude != nil && exclude(int32(i)) {
			continue
		}
		if d := b.space.Distance(target, p); d <= r {
			all = append(all, Neighbor{ID: int32(i), Dist: d})
		}
	}
	sort.Slice(all, func(i, j int) bool { return lexLess(all[i], all[j]) })
	return all
}

func neighborsEqual(t *testing.T, what string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (got %v want %v)", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d = {%d, %v}, want {%d, %v}",
				what, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestIndexMatchesLinearScanProperty is the identity property at the
// heart of the acceptance criteria: across random spaces (varying vector
// dims, scalar weighting functions), point distributions (including
// integer grids that force exact distance ties and duplicate points),
// exclusion sets, patch overlays, and ks, every index query returns
// bitwise-identical results to the brute-force linear scan.
func TestIndexMatchesLinearScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		space := randSpace(rng)
		grid := trial%3 == 0
		n := []int{0, 1, 2, 3, 7, 25, 120}[rng.Intn(7)]
		pts := randPoints(rng, space, n, grid)
		x := Build(space, pts, uint64(trial))

		// Apply a random patch sequence (moves, move-backs) — the brute
		// reference tracks the current points.
		cur := make([]costspace.Point, n)
		for i := range pts {
			cur[i] = pts[i].Clone()
		}
		if n > 0 {
			for m, nm := 0, rng.Intn(5); m < nm; m++ {
				id := int32(rng.Intn(n))
				var p costspace.Point
				if rng.Intn(4) == 0 {
					p = pts[id].Clone() // exact move-back: patch must drop
				} else {
					p = randPoints(rng, space, 1, grid)[0]
				}
				cur[id] = p
				if nx, ok := x.WithPoint(id, p, x.Version()+1); ok {
					x = nx
				} else {
					// Budget exhausted: rebuild over current points, the
					// same move the index's owners make.
					x = Build(space, cur, x.Version()+1)
				}
			}
		}
		ref := brute{space: space, pts: cur}

		var exclude func(int32) bool
		excluded := map[int32]bool{}
		switch rng.Intn(4) {
		case 1: // random subset
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					excluded[int32(i)] = true
				}
			}
			exclude = func(id int32) bool { return excluded[id] }
		case 2: // everything
			exclude = func(int32) bool { return true }
		}

		for qn := 0; qn < 4; qn++ {
			target := randTarget(rng, space, grid && rng.Intn(2) == 0)

			gid, gd, gok := x.Nearest(target, exclude)
			wid, wd, wok := ref.nearest(target, space.Dims(), exclude)
			if gok != wok || (gok && (gid != wid || gd != wd)) {
				t.Fatalf("trial %d: Nearest = (%d,%v,%v), want (%d,%v,%v)",
					trial, gid, gd, gok, wid, wd, wok)
			}

			gid, gd, gok = x.NearestVector(target, exclude)
			wid, wd, wok = ref.nearest(target, space.VectorDims, exclude)
			if gok != wok || (gok && (gid != wid || gd != wd)) {
				t.Fatalf("trial %d: NearestVector = (%d,%v,%v), want (%d,%v,%v)",
					trial, gid, gd, gok, wid, wd, wok)
			}

			r := rng.Float64() * 80
			neighborsEqual(t, "WithinRadius",
				x.WithinRadius(target, r, exclude, nil), ref.within(target, r, exclude))
		}
	}
}

func TestIndexEmptyAndAllExcluded(t *testing.T) {
	space := costspace.NewLatencyLoadSpace(100)
	x := Build(space, nil, 0)
	if _, _, ok := x.Nearest(space.IdealPoint(vivaldi.Coord{0, 0}), nil); ok {
		t.Fatal("Nearest on empty index reported found")
	}
	pts := []costspace.Point{
		space.NewPoint(vivaldi.Coord{1, 2}, []float64{0.5}),
		space.NewPoint(vivaldi.Coord{3, 4}, []float64{0.1}),
	}
	x = Build(space, pts, 1)
	all := func(int32) bool { return true }
	if _, _, ok := x.Nearest(space.IdealPoint(vivaldi.Coord{0, 0}), all); ok {
		t.Fatal("Nearest with everything excluded reported found")
	}
	if got := x.WithinRadius(space.IdealPoint(vivaldi.Coord{0, 0}), math.Inf(1), all, nil); len(got) != 0 {
		t.Fatalf("WithinRadius with everything excluded returned %v", got)
	}
}

func TestIndexVersioningAndPatchBudget(t *testing.T) {
	space := costspace.NewLatencyLoadSpace(100)
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, space, 200, false)
	x := Build(space, pts, 3)
	if x.Version() != 3 {
		t.Fatalf("Version = %d, want 3", x.Version())
	}
	if x2 := x.WithVersion(9); x2.Version() != 9 || x.Version() != 3 {
		t.Fatalf("WithVersion: got %d / receiver %d", x2.WithVersion(9).Version(), x.Version())
	}

	// Patch until the budget refuses; the receiver must stay valid.
	cur := x
	budget := x.patchBudget()
	if budget >= 200 {
		t.Fatalf("fixture too small for budget %d", budget)
	}
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("patch budget never refused")
		}
		p := randPoints(rng, space, 1, false)[0]
		nx, ok := cur.WithPoint(int32(i%200), p, uint64(4+i))
		if !ok {
			if cur.NumPatched() != budget {
				t.Fatalf("refused at %d patches, want %d", cur.NumPatched(), budget)
			}
			break
		}
		cur = nx
	}

	// Exact move-back drops the patch.
	y, ok := x.WithPoint(5, pts[5].Clone(), 4)
	if !ok || y.NumPatched() != 0 {
		t.Fatalf("move-back: ok=%v patched=%d, want true/0", ok, y.NumPatched())
	}
	moved, _ := x.WithPoint(5, randPoints(rng, space, 1, false)[0], 4)
	back, ok := moved.WithPoint(5, pts[5].Clone(), 5)
	if !ok || back.NumPatched() != 0 {
		t.Fatalf("patch then move-back: ok=%v patched=%d, want true/0", ok, back.NumPatched())
	}
}

func TestIndexDistanceMatchesSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	space := costspace.NewLatencyLoadSpace(100)
	pts := randPoints(rng, space, 25, false)
	x := Build(space, pts, 0)
	target := randTarget(rng, space, false)
	for i, p := range pts {
		if got, want := x.Distance(int32(i), target), space.Distance(target, p); got != want {
			t.Fatalf("Distance(%d) = %v, want %v", i, got, want)
		}
	}
	np := randPoints(rng, space, 1, false)[0]
	x2, _ := x.WithPoint(3, np, 1)
	if got, want := x2.Distance(3, target), space.Distance(target, np); got != want {
		t.Fatalf("patched Distance = %v, want %v", got, want)
	}
}

// TestIndexReusesDst verifies the allocation contract: results are
// appended into dst's backing array when capacity allows.
func TestIndexReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	space := costspace.NewLatencyLoadSpace(100)
	pts := randPoints(rng, space, 30, false)
	x := Build(space, pts, 0)
	target := randTarget(rng, space, false)
	buf := make([]Neighbor, 0, 64)
	out := x.WithinRadius(target, math.Inf(1), nil, buf)
	if len(out) != 30 || &out[0] != &buf[:1][0] {
		t.Fatal("WithinRadius did not reuse dst's backing array")
	}
}
