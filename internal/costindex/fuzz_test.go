package costindex

import (
	"math"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// fuzzIndexPoints is the size of the indexed set: more than the patch
// budget (32 + 8·bits.Len(100) = 88), so a sequence of moves can fill
// the overlay and be refused.
const fuzzIndexPoints = 100

// fuzzSpaces are the cost-space shapes under fuzz: the optimizer's
// latency+load space, a bare one-dimensional latency line, and three
// vector dimensions with two differently weighted scalars.
var fuzzSpaces = [...]*costspace.Space{
	costspace.NewLatencyLoadSpace(100),
	{VectorDims: 1},
	{VectorDims: 3, Scalars: []costspace.ScalarDim{
		{Name: "cpu", Weight: costspace.LinearWeight{Scale: 16}},
		{Name: "mem", Weight: costspace.HingeWeight{Threshold: 0.25, Scale: 40}},
	}},
}

// indexBytes hands out an input byte by byte; an exhausted input reads
// as zeroes, so every prefix of an input is an input.
type indexBytes struct{ data []byte }

func (b *indexBytes) more() bool { return len(b.data) > 0 }

func (b *indexBytes) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

// gridPoint maps two bytes onto a coarse grid — vector coordinates are
// multiples of 8 in [0, 56], raw scalars one of 0, 0.5, 1 — so that
// distinct points coincide and exact distance ties, decided by id, are
// common.
func gridPoint(space *costspace.Space, a, c int) costspace.Point {
	vec := make(vivaldi.Coord, space.VectorDims)
	for j := range vec {
		vec[j] = float64((a>>(3*j)+c*j)&7) * 8
	}
	raw := make([]float64, len(space.Scalars))
	for j := range raw {
		raw[j] = float64((c>>(2*j))%3) / 2
	}
	return space.NewPoint(vec, raw)
}

// idealGridPoint is the vector part of gridPoint(space, a, 0) as an
// ideal point: a query target.
func idealGridPoint(space *costspace.Space, a int) costspace.Point {
	return space.IdealPoint(vivaldi.Coord(gridPoint(space, a, 0)[:space.VectorDims]))
}

// patchedWorld is an index under a sequence of point moves, with the
// brute-force reference over the current points and the points the tree
// was last built over.
type patchedWorld struct {
	t     *testing.T
	space *costspace.Space
	x     *Index
	built []costspace.Point // tree coordinates: the points at the last Build
	cur   []costspace.Point // current points: tree coordinates plus patches
}

// move sets id's point the way the optimizer's environment does: patch,
// and when the overlay is full, rebuild over the current points. A
// refusal must come only at the budget, for an id not yet patched.
func (w *patchedWorld) move(id int32, p costspace.Point) {
	t := w.t
	t.Helper()
	v := w.x.Version() + 1
	w.cur[id] = p
	nx, ok := w.x.WithPoint(id, p, v)
	if !ok {
		if _, already := w.x.patched[id]; already || w.x.NumPatched() < w.x.patchBudget() {
			t.Fatalf("WithPoint(%d) refused at %d patches, budget %d (already patched %v)",
				id, w.x.NumPatched(), w.x.patchBudget(), already)
		}
		nx = Build(w.space, w.cur, v)
		for i := range w.built {
			w.built[i] = w.cur[i].Clone()
		}
	}
	w.x = nx
	moved := 0
	for i := range w.cur {
		for j := range w.cur[i] {
			if w.cur[i][j] != w.built[i][j] {
				moved++
				break
			}
		}
	}
	if w.x.NumPatched() != moved || w.x.Version() != v {
		t.Fatalf("index has %d patches at version %d, %d points differ from the tree at version %d",
			w.x.NumPatched(), w.x.Version(), moved, v)
	}
}

// excludeSet builds one of the exclusion shapes mapping meets: none,
// an arbitrary subset, the nearest few (so the search has to pass over
// them), and everything.
func (w *patchedWorld) excludeSet(mode, arg int, target costspace.Point) func(int32) bool {
	switch mode % 4 {
	case 1:
		return func(id int32) bool { return (int(id)*arg>>3)&1 == 1 }
	case 2:
		near := map[int32]bool{}
		for _, nb := range (brute{space: w.space, pts: w.cur}).within(target, math.Inf(1), nil)[:1+arg%6] {
			near[nb.ID] = true
		}
		return func(id int32) bool { return near[id] }
	case 3:
		return func(int32) bool { return true }
	}
	return nil
}

// check holds all three queries to the linear scan over current points.
func (w *patchedWorld) check(target costspace.Point, r float64, exclude func(int32) bool) {
	t := w.t
	t.Helper()
	ref := brute{space: w.space, pts: w.cur}
	gid, gd, gok := w.x.Nearest(target, exclude)
	wid, wd, wok := ref.nearest(target, w.space.Dims(), exclude)
	if gok != wok || (gok && (gid != wid || gd != wd)) {
		t.Fatalf("Nearest = (%d, %v, %v), linear scan (%d, %v, %v)", gid, gd, gok, wid, wd, wok)
	}
	gid, gd, gok = w.x.NearestVector(target, exclude)
	wid, wd, wok = ref.nearest(target, w.space.VectorDims, exclude)
	if gok != wok || (gok && (gid != wid || gd != wd)) {
		t.Fatalf("NearestVector = (%d, %v, %v), linear scan (%d, %v, %v)", gid, gd, gok, wid, wd, wok)
	}
	neighborsEqual(t, "WithinRadius", w.x.WithinRadius(target, r, exclude, nil), ref.within(target, r, exclude))
}

// FuzzIndexPatchesMatchBrute: bytes → a sequence of point moves (single
// moves, exact move-backs, and bursts that run the patch overlay up to
// and past its budget, rebuilding on refusal as the optimizer does)
// interleaved with queries, then a fixed sweep of queries over whatever
// state the sequence left. Every answer of Nearest, NearestVector and
// WithinRadius, under every exclusion shape, must equal the
// linear scan over the current points bit for bit.
func FuzzIndexPatchesMatchBrute(f *testing.F) {
	f.Add([]byte{0, 0, 5, 17, 1, 5, 3, 9, 40, 2, 1, 7, 3, 200, 3, 4, 0, 2, 0, 90, 9, 3, 31, 6, 8, 1, 2})
	f.Add([]byte{2, 2, 3, 95, 2, 0, 50, 11, 3, 16, 16, 5, 2, 4, 1, 3, 3, 1, 12, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &indexBytes{data: data}
		space := fuzzSpaces[b.next()%len(fuzzSpaces)]
		w := &patchedWorld{t: t, space: space,
			built: make([]costspace.Point, fuzzIndexPoints), cur: make([]costspace.Point, fuzzIndexPoints)}
		for i := range w.cur {
			w.cur[i] = gridPoint(space, i*37, i*11)
			w.built[i] = w.cur[i].Clone()
		}
		w.x = Build(space, w.cur, 0)
		for b.more() {
			switch b.next() % 4 {
			case 0: // one move
				id := int32(b.next() % fuzzIndexPoints)
				w.move(id, gridPoint(space, b.next(), b.next()))
			case 1: // exact move back to the tree coordinate
				id := int32(b.next() % fuzzIndexPoints)
				w.move(id, w.built[id].Clone())
			case 2: // a burst of n consecutive ids
				from, n, c := b.next(), b.next(), b.next()
				for i := 0; i < n; i++ {
					w.move(int32((from+i)%fuzzIndexPoints), gridPoint(space, from*7+i*13, c+i))
				}
			case 3:
				target := idealGridPoint(space, b.next())
				r := float64(b.next()) / 4
				mode, arg := b.next(), b.next()
				w.check(target, r, w.excludeSet(mode, arg, target))
			}
		}
		for i := 0; i < 6; i++ {
			target := idealGridPoint(space, i*43+4)
			for mode := 0; mode < 4; mode++ {
				w.check(target, float64(8*i), w.excludeSet(mode, 3*i+mode, target))
			}
		}
	})
}
