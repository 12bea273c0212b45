// Package placement implements the two phases of the paper's cost-space
// service placement (§3.2):
//
//   - Virtual placement computes ideal coordinates for a circuit's
//     unpinned services in the vector subspace of the cost space. The
//     primary algorithm is spring Relaxation (from the companion SBON
//     work the paper builds on): circuit links are springs whose constant
//     is the link data rate and whose extension is the latency-space
//     distance, and unpinned services are massless bodies that settle at
//     the energy minimum. Weiszfeld, which minimizes the linear cost
//     instead of the quadratic one, is the alternative for ablations.
//
//   - Physical mapping finds a real node near the ideal coordinate. The
//     paper's mechanism is a Hilbert-keyed DHT lookup (DHTMapper): one
//     key, one lookup and one pass over the entries a bounded ring walk
//     reaches, keeping the nearest whose node is not excluded. An
//     exhaustive OracleMapper provides ground truth for measuring mapping
//     error. A mapper builds its ideal target point on its own stack and
//     allocates nothing per call.
//
// All placers and mappers are re-entrant: they keep no state between
// calls and mutate only the Problem (or return values) they are given, so
// one placer value may solve many Problems from concurrent goroutines —
// the property the batch optimizer's shared-snapshot worker pool relies
// on. Implementations must preserve this. What a solve needs beyond its
// inputs (adjacency, coordinate arena, accumulator) is scratch on the
// Problem itself, recycled by the next solve of that Problem: a Problem
// belongs to one goroutine at a time, and a reused one is solved without
// allocating.
package placement

import (
	"fmt"
	"math"
	"slices"

	"github.com/hourglass/sbon/internal/vivaldi"
)

// Vertex is one service of a circuit being placed. Pinned vertices
// (producers, consumers, reused services) have fixed coordinates;
// unpinned vertices are placed by the algorithm.
type Vertex struct {
	// Pinned marks vertices whose coordinates are fixed.
	Pinned bool
	// Coord is the vertex's position in the vector subspace. For pinned
	// vertices it is the input; for unpinned vertices it is the output
	// (and may hold an initial guess on input; zero-value coords are
	// seeded from the pinned centroid).
	Coord vivaldi.Coord
}

// Link is an undirected circuit edge carrying Rate KB/s between the
// vertices at indices A and B.
type Link struct {
	A, B int
	Rate float64
}

// Problem is a circuit placement instance. A placer leaves the unpinned
// vertices' coordinates in storage the Problem owns, where they stay
// valid until the Problem is solved again; Clone a coordinate to keep it
// longer.
type Problem struct {
	Vertices []Vertex
	Links    []Link

	// Scratch, rebuilt by prepare. Vertex v's incident links are
	// adj[adjOff[v]:adjOff[v+1]], in Links order; free (in adjOff's block)
	// lists the unpinned vertices with links. arena backs acc and every
	// vertex's coordinate, packed in vertex order; it alternates with
	// spare from solve to solve, so a solve that starts from the previous
	// solve's coordinates never reads what it is overwriting.
	adjOff, free []int
	adj          []adjEntry
	arena, spare []float64
	acc          vivaldi.Coord // per-vertex accumulator
}

// Validate reports whether the problem is well formed: consistent
// dimensions, valid link endpoints, positive rates, and at least one
// pinned vertex (otherwise the optimum is degenerate — everything
// collapses to a point).
func (p *Problem) Validate() error {
	if len(p.Vertices) == 0 {
		return fmt.Errorf("placement: no vertices")
	}
	dims := -1
	pinned := 0
	for i, v := range p.Vertices {
		if v.Pinned {
			pinned++
			if len(v.Coord) == 0 {
				return fmt.Errorf("placement: pinned vertex %d has no coordinate", i)
			}
		}
		if len(v.Coord) > 0 {
			if dims == -1 {
				dims = len(v.Coord)
			} else if len(v.Coord) != dims {
				return fmt.Errorf("placement: vertex %d has %d dims, expected %d", i, len(v.Coord), dims)
			}
		}
	}
	if pinned == 0 {
		return fmt.Errorf("placement: no pinned vertices")
	}
	for i, l := range p.Links {
		if l.A < 0 || l.A >= len(p.Vertices) || l.B < 0 || l.B >= len(p.Vertices) {
			return fmt.Errorf("placement: link %d endpoints (%d,%d) out of range", i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("placement: link %d is a self-loop", i)
		}
		if l.Rate <= 0 {
			return fmt.Errorf("placement: link %d rate %v, need > 0", i, l.Rate)
		}
	}
	return nil
}

// dims returns the coordinate dimensionality of the problem.
func (p *Problem) dims() int {
	for _, v := range p.Vertices {
		if len(v.Coord) > 0 {
			return len(v.Coord)
		}
	}
	return 0
}

// pinnedCentroid writes the unweighted centroid of the pinned vertices,
// the seed for unpinned coordinates, into c.
func (p *Problem) pinnedCentroid(c vivaldi.Coord) {
	clear(c)
	n := 0
	for _, v := range p.Vertices {
		if v.Pinned {
			for i := range c {
				c[i] += v.Coord[i]
			}
			n++
		}
	}
	for i := range c {
		c[i] /= float64(n)
	}
}

// adjEntry is one incident link from a vertex's perspective.
type adjEntry struct {
	other int
	rate  float64
}

// neighbors returns vertex v's incident links (valid after prepare).
func (p *Problem) neighbors(v int) []adjEntry { return p.adj[p.adjOff[v]:p.adjOff[v+1]] }

// buildAdjacency indexes the links by endpoint in compressed-row form.
func (p *Problem) buildAdjacency() {
	n := len(p.Vertices)
	// Scratch grows geometrically (slices.Grow), so a reused problem
	// settles after a growth or two as its circuits widen.
	p.adjOff, p.adj = slices.Grow(p.adjOff[:0], 2*n+2), slices.Grow(p.adj[:0], 2*len(p.Links))
	// off[v+2] counts v's links, then off[v+1] is advanced from v's first
	// slot to its end as they are filled in, leaving off[v]..off[v+1].
	off := p.adjOff[:n+2]
	clear(off)
	for _, l := range p.Links {
		off[l.A+2]++
		off[l.B+2]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	p.adj = p.adj[:2*len(p.Links)]
	for _, l := range p.Links {
		p.adj[off[l.A+1]] = adjEntry{other: l.B, rate: l.Rate}
		off[l.A+1]++
		p.adj[off[l.B+1]] = adjEntry{other: l.A, rate: l.Rate}
		off[l.B+1]++
	}
	p.adjOff, p.free = off[:n+1], off[n+2:n+2:2*n+2]
}

// prepare readies a validated problem for an in-place solve. It builds
// the adjacency and copies every coordinate into the packed arena, where
// an unpinned vertex's Coord then lives, starting from the caller's
// guess (never written through) or else the pinned centroid.
func (p *Problem) prepare() {
	p.buildAdjacency()
	d := p.dims()
	need := (2 + len(p.Vertices)) * d
	p.arena, p.spare = slices.Grow(p.spare[:0], need)[:need], p.arena
	a := p.arena
	p.acc = a[:d:d]
	seed := vivaldi.Coord(a[d : 2*d : 2*d])
	p.pinnedCentroid(seed)
	for vi, off := 0, 2*d; vi < len(p.Vertices); vi, off = vi+1, off+d {
		v := &p.Vertices[vi]
		// Full slice expression: a caller-side append must not run into
		// the next vertex's coordinate.
		own := vivaldi.Coord(a[off : off+d : off+d])
		if !v.Pinned && len(v.Coord) != d {
			v.Coord = seed
		}
		copy(own, v.Coord)
		if !v.Pinned {
			v.Coord = own
			if len(p.neighbors(vi)) > 0 {
				p.free = append(p.free, vi)
			}
		}
	}
}

// VirtualPlacer computes coordinates for the unpinned vertices of a
// problem, mutating their Coord fields in place.
type VirtualPlacer interface {
	// PlaceVirtual solves the problem. Implementations must leave pinned
	// coordinates untouched.
	PlaceVirtual(p *Problem) error
	// Name identifies the placer in experiment output.
	Name() string
}

// Relaxation is the paper's spring-relaxation virtual placement: each
// unpinned vertex is iteratively moved to the rate-weighted centroid of
// its neighbors (the exact minimizer of the quadratic spring energy for
// that vertex with others fixed, i.e. Gauss–Seidel coordinate descent).
type Relaxation struct {
	// MaxIter bounds the sweeps over unpinned vertices (default 200).
	MaxIter int
	// Tolerance stops iteration when no vertex moves farther than this
	// (default 1e-3, in coordinate units ≈ milliseconds).
	Tolerance float64
}

// Name implements VirtualPlacer.
func (r Relaxation) Name() string { return "relaxation" }

// PlaceVirtual implements VirtualPlacer. The arithmetic matches the
// textbook num.Scale(1/den) update bit for bit.
func (r Relaxation) PlaceVirtual(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	maxIter := r.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	tol := r.Tolerance
	if tol <= 0 {
		tol = 1e-3
	}
	p.prepare()
	p.relax(maxIter, tol, 0)
	return nil
}

// relax sweeps a prepared problem, moving each unpinned vertex to the
// weighted centroid of its neighbors, until no vertex moves farther than
// tol or maxIter sweeps are done, and returns the sweeps it made. With
// eps == 0 a link weighs its rate (the spring model); with eps > 0 it
// weighs rate/√(dist²+eps²), the reweighting that makes the same sweep
// minimize Σ rate·dist instead.
//
// A sweep keeps the largest squared move and takes one root at its end:
// √ is monotone, so √(max ss) is bit for bit the largest move.
func (p *Problem) relax(maxIter int, tol, eps float64) int {
	num := p.acc
	d := len(num)
	xs := p.arena[2*d:]
	for iter := 0; iter < maxIter; iter++ {
		maxSS := 0.0
		for _, vi := range p.free {
			own := vivaldi.Coord(xs[vi*d : vi*d+d : vi*d+d])
			if d == 2 && eps == 0 { // the spring pass on the plane, unrolled
				var n0, n1, den float64
				for _, e := range p.neighbors(vi) {
					o := xs[2*e.other : 2*e.other+2 : 2*e.other+2]
					n0 += e.rate * o[0]
					n1 += e.rate * o[1]
					den += e.rate
				}
				inv := 1 / den
				x0, x1 := float64(n0*inv), float64(n1*inv)
				d0, d1 := x0-own[0], x1-own[1]
				own[0], own[1] = x0, x1
				ss := d0 * d0
				if ss += d1 * d1; ss > maxSS {
					maxSS = ss
				}
				continue
			}
			clear(num)
			var den float64
			for _, e := range p.neighbors(vi) {
				o, wgt := xs[e.other*d:e.other*d+d:e.other*d+d], e.rate
				if eps > 0 {
					dist := own.Distance(o)
					wgt /= math.Sqrt(dist*dist + eps*eps)
				}
				for k := range num {
					num[k] += wgt * o[k]
				}
				den += wgt
			}
			inv := 1 / den
			var ss float64
			for k, c := range own {
				x := float64(num[k] * inv) // rounded, never fused into dx
				dx := x - c
				ss += dx * dx
				own[k] = x
			}
			if ss > maxSS {
				maxSS = ss
			}
		}
		if math.Sqrt(maxSS) < tol {
			return iter + 1
		}
	}
	return maxIter
}

// Weiszfeld minimizes the linear network-usage objective Σ rate·dist
// directly (the multi-facility Weber problem), as an ablation against the
// quadratic spring surrogate (experiment X7). The iteration is IRLS with
// a smoothed objective Σ rate·√(dist²+ε²) — block-coordinate updates on
// the smoothed problem descend monotonically, avoiding the stalls of the
// raw Weiszfeld fixed point when services coincide. Coordinates are
// seeded from the quadratic Relaxation solution.
type Weiszfeld struct {
	MaxIter   int
	Tolerance float64
}

// weiszfeldEpsilon is Weiszfeld's smoothing length ε in coordinate units:
// a microsecond in latency space.
const weiszfeldEpsilon = 1e-3

// Name implements VirtualPlacer.
func (w Weiszfeld) Name() string { return "weiszfeld" }

// PlaceVirtual implements VirtualPlacer.
func (w Weiszfeld) PlaceVirtual(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	maxIter := w.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}
	tol := w.Tolerance
	if tol <= 0 {
		tol = 1e-5
	}
	p.prepare()
	// Seed from the quadratic optimum: a good convex start.
	p.relax(maxIter, tol, 0)
	p.relax(maxIter, tol, weiszfeldEpsilon)
	return nil
}
