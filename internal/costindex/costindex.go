// Package costindex provides an exact nearest-neighbor index over the
// cost-space points of overlay nodes — the data structure behind the
// physical-mapping hot path (project an ideal virtual coordinate onto
// the nearest physical node in full cost-space distance) that every
// optimization performs once per unpinned service.
//
// # Structure choice: k-d tree, not a Hilbert-cell grid
//
// Two candidate structures fit the workload: a k-d tree over the points,
// or buckets keyed by Hilbert cell (reusing the DHT's space-filling
// curve) with an expanding-ring search. The k-d tree wins here:
//
//   - Cost spaces are low-dimensional (2 latency dims + a handful of
//     scalar dims), the regime where k-d pruning is most effective.
//   - The tree is exact by construction with no tuning knob. A Hilbert
//     grid needs a cell resolution; exactness then requires visiting
//     every cell intersecting the current search ball, and the walk
//     degenerates when points cluster — which they do, since stub
//     domains share transit latencies and idle nodes share the zero
//     scalar plane.
//   - Mapping needs a correct `exclude` set (drained nodes, anti-
//     co-location) and lowest-node-id tie-breaking; both drop out of
//     tree search trivially but complicate a bucketed grid.
//
// # Exactness contract
//
// Queries return results identical to the brute-force linear scans they
// replace (placement.OracleMapper): distances are accumulated over
// coordinates in the same order with the same float64 operations as
// costspace.Space.Distance/VectorDistance, ties are broken by lowest
// id, and subtree pruning is strict (a plane is pruned only when it is
// strictly farther than the current worst candidate), so equal-distance
// candidates on the far side of a split are still found and tie-broken.
//
// # Immutability, versioning, and point churn
//
// An Index is immutable and therefore freely shared by concurrent
// readers with no locking — the optimizer hangs one off each frozen
// environment snapshot. It carries the mutation version (the optimizer's
// environment epoch) it was built under; owners compare Version against
// their current epoch to decide whether the index is still valid, the
// same invalidation discipline as the optimizer's PlanCache.
//
// Point churn (a load change moves one node's coordinate) does not force
// an immediate rebuild: WithPoint derives a new Index sharing the same
// tree with a small patch overlay of moved points. Patched ids are
// masked out of tree candidacy — the stored split planes still partition
// the unmoved points correctly — and compared linearly, preserving
// exactness. When the overlay outgrows its budget, WithPoint refuses and
// the owner rebuilds, bounding per-query patch overhead.
package costindex

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/hourglass/sbon/internal/costspace"
)

// Neighbor is one radius-query result: item id and its distance to the
// target.
type Neighbor struct {
	ID   int32
	Dist float64
}

// Index answers exact nearest-neighbor queries over a fixed set of
// cost-space points, identified by dense ids 0..Len()-1 (the optimizer
// uses node ids; the DHT catalog uses positions in its node-sorted
// published set). The zero value is not usable; call Build.
//
// An Index is immutable: all methods are safe for unsynchronized
// concurrent use, and WithPoint/WithVersion return derived copies.
type Index struct {
	version uint64
	dims    int // total coordinate dimensionality
	vdims   int // vector-subspace dimensionality
	n       int
	flat    []float64 // n*dims point coordinates, id-major
	order   []int32   // tree arrangement: median of order[lo:hi) at (lo+hi)/2
	// patched maps ids whose point moved after the tree was built to
	// their current coordinates. Nil when the index is patch-free.
	patched map[int32]costspace.Point
}

// Build constructs an index over pts (id i holds pts[i]) in the given
// cost space, stamped with the owner's mutation version. The points are
// copied; later mutation of pts does not affect the index. It panics if
// any point's dimensionality does not match the space, since that is
// always a programming error.
func Build(space *costspace.Space, pts []costspace.Point, version uint64) *Index {
	dims := space.Dims()
	x := &Index{
		version: version,
		dims:    dims,
		vdims:   space.VectorDims,
		n:       len(pts),
		flat:    make([]float64, len(pts)*dims),
		order:   make([]int32, len(pts)),
	}
	for i, p := range pts {
		if len(p) != dims {
			panic(fmt.Sprintf("costindex: point %d has %d dims, space has %d", i, len(p), dims))
		}
		copy(x.flat[i*dims:], p)
		x.order[i] = int32(i)
	}
	x.build(0, x.n, 0)
	return x
}

// Version returns the owner mutation version the index was built (or
// last re-stamped) under.
func (x *Index) Version() uint64 { return x.version }

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.n }

// NumPatched returns the number of points overridden since the tree was
// built.
func (x *Index) NumPatched() int { return len(x.patched) }

// patchBudget bounds the overlay size: beyond this, per-query linear
// patch scans erode the tree's advantage and a rebuild is cheaper.
//
// The budget comes from the crossover measurements in
// crossover_bench_test.go (2-core Intel Xeon, go1.24, 4-dim
// latency+load space, Nearest queries):
//
//	clean Nearest    0.43µs (n=1k)   0.58µs (n=10k)   0.86µs (n=100k)
//	per-patch cost   ~11ns/query, independent of n
//	Build            106µs  (n=1k)   1.95ms (n=10k)   25.8ms (n=100k)
//
// Overlay scans cost the same per patch at every scale while the tree
// query grows like log n, so the break-even overlay size — where patch
// scanning doubles the query — is cleanQuery/11ns ≈ 40 at 1k, ~55 at
// 10k, ~75 at 100k: logarithmic in n, not linear. A budget linear in n
// (8+n/8 admits 12.5k patches at n=100k: ~140µs of patch scan on a
// 0.86µs query) is ruinous; 32+8·log2(n) (112 at 1k, 138 at 10k, 165 at
// 100k) follows the logarithmic doubling point and keeps patched
// queries within ~4x of a clean tree at every scale.
func (x *Index) patchBudget() int {
	return 32 + 8*bits.Len(uint(x.n))
}

// WithPoint derives an index in which id's point is p (p is copied),
// stamped with the new version. It reports ok=false — leaving the
// receiver unchanged and returning nil — when the patch overlay would
// exceed its budget; the caller should Build a fresh index instead. If
// p equals the id's tree coordinate bitwise, the patch is dropped (the
// point moved back), shrinking the overlay.
func (x *Index) WithPoint(id int32, p costspace.Point, version uint64) (*Index, bool) {
	if int(id) < 0 || int(id) >= x.n {
		panic(fmt.Sprintf("costindex: WithPoint id %d out of range [0,%d)", id, x.n))
	}
	if len(p) != x.dims {
		panic(fmt.Sprintf("costindex: WithPoint %d-dim point in %d-dim index", len(p), x.dims))
	}
	nx := *x
	nx.version = version
	back := true // p equals the original tree coordinate
	for j := 0; j < x.dims; j++ {
		if p[j] != x.flat[int(id)*x.dims+j] {
			back = false
			break
		}
	}
	_, already := x.patched[id]
	if back && !already {
		return &nx, true // nothing to patch
	}
	nx.patched = make(map[int32]costspace.Point, len(x.patched)+1)
	for k, v := range x.patched {
		nx.patched[k] = v
	}
	if back {
		delete(nx.patched, id)
	} else {
		if !already && len(x.patched) >= x.patchBudget() {
			return nil, false
		}
		nx.patched[id] = p.Clone()
	}
	if len(nx.patched) == 0 {
		nx.patched = nil
	}
	return &nx, true
}

// WithVersion re-stamps the index for a mutation that did not move any
// point (e.g. a statistics-catalog change that advances the environment
// epoch), avoiding a needless rebuild.
func (x *Index) WithVersion(version uint64) *Index {
	nx := *x
	nx.version = version
	return &nx
}

// Nearest returns the non-excluded id nearest to target in full-space
// distance, with ties broken by lowest id — the indexed equivalent of a
// linear scan in id order keeping the strictly closest point. found is
// false when every point is excluded (or the index is empty).
func (x *Index) Nearest(target costspace.Point, exclude func(int32) bool) (id int32, dist float64, found bool) {
	return x.nearest(target, x.dims, exclude)
}

// NearestVector is Nearest with distance restricted to the vector
// (latency) subspace, the metric of costspace.Space.VectorDistance.
func (x *Index) NearestVector(target costspace.Point, exclude func(int32) bool) (id int32, dist float64, found bool) {
	return x.nearest(target, x.vdims, exclude)
}

// WithinRadius appends to dst every non-excluded id within full-space
// distance r of target (inclusive), ordered by (distance, id).
func (x *Index) WithinRadius(target costspace.Point, r float64, exclude func(int32) bool, dst []Neighbor) []Neighbor {
	x.checkTarget(target)
	q := radiusQuery{x: x, target: target, ed: x.dims, r: r, exclude: exclude, out: dst[:0]}
	if x.n > 0 {
		q.visit(0, x.n, 0)
	}
	for id, p := range x.patched {
		if exclude == nil || !exclude(id) {
			if d := distPoint(target, p, x.dims); d <= r {
				q.out = append(q.out, Neighbor{ID: id, Dist: d})
			}
		}
	}
	out := q.out
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	return out
}

// Distance returns the full-space distance from target to the id's
// current point (honoring patches), computed identically to
// costspace.Space.Distance.
func (x *Index) Distance(id int32, target costspace.Point) float64 {
	x.checkTarget(target)
	if p, ok := x.patched[id]; ok {
		return distPoint(target, p, x.dims)
	}
	return x.dist(id, target, x.dims)
}

func (x *Index) checkTarget(target costspace.Point) {
	if len(target) != x.dims {
		panic(fmt.Sprintf("costindex: %d-dim target in %d-dim index", len(target), x.dims))
	}
}

// coord returns the tree (unpatched) coordinate of id on axis.
func (x *Index) coord(id int32, axis int) float64 {
	return x.flat[int(id)*x.dims+axis]
}

// dist returns the distance from target to id's tree point over the
// first ed dimensions, with the exact accumulation order of
// costspace.Space.Distance (ed == dims) / VectorDistance (ed == vdims).
func (x *Index) dist(id int32, target costspace.Point, ed int) float64 {
	base := int(id) * x.dims
	var ss float64
	for j := 0; j < ed; j++ {
		d := target[j] - x.flat[base+j]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// distPoint is dist for an explicit (patched) point.
func distPoint(target costspace.Point, p costspace.Point, ed int) float64 {
	var ss float64
	for j := 0; j < ed; j++ {
		d := target[j] - p[j]
		ss += d * d
	}
	return math.Sqrt(ss)
}

func lexLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// ---- tree construction ----

// build arranges order[lo:hi) into k-d tree form: the median by
// (coordinate on the depth's axis, id) sits at (lo+hi)/2, smaller
// elements in [lo,mid), larger in (mid,hi); subtrees recurse with the
// next axis. Iterating on the larger half bounds the stack at O(log n).
func (x *Index) build(lo, hi, depth int) {
	for hi-lo > 1 {
		axis := depth % x.dims
		mid := (lo + hi) / 2
		x.selectKth(lo, hi, mid, axis)
		x.build(lo, mid, depth+1)
		lo = mid + 1
		depth++
	}
}

// less orders ids by (coordinate on axis, id) — a strict total order, so
// tree shape is deterministic for a given point set.
func (x *Index) less(a, b int32, axis int) bool {
	ca, cb := x.coord(a, axis), x.coord(b, axis)
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// selectKth partially sorts order[lo:hi) so position k holds the element
// of rank k under less (quickselect, median-of-three pivot).
func (x *Index) selectKth(lo, hi, k, axis int) {
	o := x.order
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if x.less(o[mid], o[lo], axis) {
			o[lo], o[mid] = o[mid], o[lo]
		}
		if x.less(o[hi-1], o[lo], axis) {
			o[lo], o[hi-1] = o[hi-1], o[lo]
		}
		if x.less(o[hi-1], o[mid], axis) {
			o[mid], o[hi-1] = o[hi-1], o[mid]
		}
		// o[hi-1] now holds the median-of-three; partition against it.
		pv := o[hi-1]
		i := lo
		for j := lo; j < hi-1; j++ {
			if x.less(o[j], pv, axis) {
				o[i], o[j] = o[j], o[i]
				i++
			}
		}
		o[i], o[hi-1] = o[hi-1], o[i]
		switch {
		case k == i:
			return
		case k < i:
			hi = i
		default:
			lo = i + 1
		}
	}
}

// ---- single-nearest search ----

type nnQuery struct {
	x       *Index
	target  costspace.Point
	ed      int
	exclude func(int32) bool
	bestID  int32
	bestD   float64
	found   bool
}

func (x *Index) nearest(target costspace.Point, ed int, exclude func(int32) bool) (int32, float64, bool) {
	x.checkTarget(target)
	q := nnQuery{x: x, target: target, ed: ed, exclude: exclude}
	if x.n > 0 {
		q.visit(0, x.n, 0)
	}
	for id, p := range x.patched {
		if exclude != nil && exclude(id) {
			continue
		}
		d := distPoint(target, p, ed)
		if !q.found || d < q.bestD || (d == q.bestD && id < q.bestID) {
			q.bestID, q.bestD, q.found = id, d, true
		}
	}
	return q.bestID, q.bestD, q.found
}

func (q *nnQuery) visit(lo, hi, depth int) {
	x := q.x
	mid := (lo + hi) / 2
	id := x.order[mid]
	if _, moved := x.patched[id]; !moved && (q.exclude == nil || !q.exclude(id)) {
		d := x.dist(id, q.target, q.ed)
		if !q.found || d < q.bestD || (d == q.bestD && id < q.bestID) {
			q.bestID, q.bestD, q.found = id, d, true
		}
	}
	if hi-lo == 1 {
		return
	}
	axis := depth % x.dims
	var diff float64
	if axis < q.ed {
		// Masked (out-of-subspace) axes contribute zero distance, so both
		// subtrees are always in range.
		diff = q.target[axis] - x.coord(id, axis)
	}
	if diff < 0 {
		q.visit(lo, mid, depth+1)
		// The far plane prunes only when strictly farther than the best:
		// an equal-distance candidate beyond it could still win its tie
		// on a lower id.
		if (!q.found || -diff <= q.bestD) && mid+1 < hi {
			q.visit(mid+1, hi, depth+1)
		}
	} else {
		if mid+1 < hi {
			q.visit(mid+1, hi, depth+1)
		}
		if !q.found || diff <= q.bestD {
			q.visit(lo, mid, depth+1)
		}
	}
}

// ---- radius search ----

type radiusQuery struct {
	x       *Index
	target  costspace.Point
	ed      int
	r       float64
	exclude func(int32) bool
	out     []Neighbor
}

func (q *radiusQuery) visit(lo, hi, depth int) {
	x := q.x
	mid := (lo + hi) / 2
	id := x.order[mid]
	if _, moved := x.patched[id]; !moved && (q.exclude == nil || !q.exclude(id)) {
		if d := x.dist(id, q.target, q.ed); d <= q.r {
			q.out = append(q.out, Neighbor{ID: id, Dist: d})
		}
	}
	if hi-lo == 1 {
		return
	}
	axis := depth % x.dims
	var diff float64
	if axis < q.ed {
		diff = q.target[axis] - x.coord(id, axis)
	}
	if diff < 0 {
		q.visit(lo, mid, depth+1)
		if -diff <= q.r && mid+1 < hi {
			q.visit(mid+1, hi, depth+1)
		}
	} else {
		if mid+1 < hi {
			q.visit(mid+1, hi, depth+1)
		}
		if diff <= q.r {
			q.visit(lo, mid, depth+1)
		}
	}
}
