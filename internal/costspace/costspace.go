// Package costspace implements the paper's central abstraction: a
// multi-dimensional metric space in which each physical node chooses a
// coordinate that expresses the cost of using it.
//
// A cost space has two kinds of dimensions (§3.1 of the paper):
//
//   - Vector dimensions capture pairwise costs such as communication
//     latency. They come from a network-coordinate system (package
//     vivaldi) and distances within them estimate the pairwise cost.
//   - Scalar dimensions capture single-node costs such as CPU load. Each
//     node computes its coordinate component by applying a deployer-
//     supplied weighting function to its raw value. Weighting functions
//     are non-negative with zero representing the ideal value, so the
//     "ideal" coordinate for any placement always has zeros in every
//     scalar dimension.
//
// Virtual placement operates only over the vector subspace (the ideal
// scalar components are all zero); physical mapping measures full-space
// distance, which is how an overloaded node that is nearby in latency
// ends up "far away" (the paper's Figure 3, node N1).
package costspace

import (
	"fmt"
	"math"

	"github.com/hourglass/sbon/internal/vivaldi"
)

// Point is a coordinate in a cost space: the first Space.VectorDims
// components are vector (latency) coordinates, the remainder are weighted
// scalar components, one per scalar dimension.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// WeightFunc maps a raw scalar node property (e.g. CPU load in [0,1]) to
// its cost-space component. Implementations must be non-negative and
// return 0 for the ideal raw value.
type WeightFunc interface {
	// Weight returns the cost-space component for raw value x.
	Weight(x float64) float64
	// Name identifies the function in logs and experiment output.
	Name() string
}

// SquaredWeight is the paper's example weighting function (Figure 2): the
// component is Scale·x², strongly discouraging the use of nodes with
// large raw values.
type SquaredWeight struct {
	// Scale converts the squared raw value into latency-comparable units
	// (milliseconds). The paper leaves units to the deployer; we default
	// to 100 so a fully loaded node (x=1) appears 100 ms "away".
	Scale float64
}

// Weight returns Scale·x² (0 for negative x, which is clamped).
func (w SquaredWeight) Weight(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return w.Scale * x * x
}

// Name implements WeightFunc.
func (w SquaredWeight) Name() string { return fmt.Sprintf("squared(scale=%g)", w.Scale) }

// LinearWeight scales the raw value linearly.
type LinearWeight struct {
	Scale float64
}

// Weight returns Scale·x (0 for negative x).
func (w LinearWeight) Weight(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return w.Scale * x
}

// Name implements WeightFunc.
func (w LinearWeight) Name() string { return fmt.Sprintf("linear(scale=%g)", w.Scale) }

// ExponentialWeight grows as Scale·(e^(Rate·x) - 1): near-flat for small
// raw values, prohibitive for large ones.
type ExponentialWeight struct {
	Scale float64
	Rate  float64
}

// Weight returns Scale·(e^(Rate·x)−1) (0 for negative x).
func (w ExponentialWeight) Weight(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return w.Scale * (math.Exp(w.Rate*x) - 1)
}

// Name implements WeightFunc.
func (w ExponentialWeight) Name() string {
	return fmt.Sprintf("exp(scale=%g,rate=%g)", w.Scale, w.Rate)
}

// HingeWeight is zero until Threshold and then grows linearly with slope
// Scale: "free until contended".
type HingeWeight struct {
	Threshold float64
	Scale     float64
}

// Weight returns 0 for x ≤ Threshold, else Scale·(x−Threshold).
func (w HingeWeight) Weight(x float64) float64 {
	if x <= w.Threshold {
		return 0
	}
	return w.Scale * (x - w.Threshold)
}

// Name implements WeightFunc.
func (w HingeWeight) Name() string {
	return fmt.Sprintf("hinge(thresh=%g,scale=%g)", w.Threshold, w.Scale)
}

// ScalarDim describes one scalar cost dimension.
type ScalarDim struct {
	// Name identifies the dimension (e.g. "cpu-load").
	Name string
	// Weight is the deployer-supplied weighting function.
	Weight WeightFunc
}

// Space defines the semantics of a cost space: its dimensionality and the
// weighting function of every scalar dimension. All SBON nodes that share
// a cost space must agree on this definition (§3.1: "the semantics ...
// must be known by all nodes").
type Space struct {
	// VectorDims is the number of vector (latency) dimensions.
	VectorDims int
	// Scalars lists the scalar dimensions in coordinate order.
	Scalars []ScalarDim
}

// NewLatencyLoadSpace returns the cost space of the paper's Figure 2:
// two latency dimensions plus one squared CPU-load dimension.
func NewLatencyLoadSpace(loadScale float64) *Space {
	return &Space{
		VectorDims: 2,
		Scalars:    []ScalarDim{{Name: "cpu-load", Weight: SquaredWeight{Scale: loadScale}}},
	}
}

// Validate reports whether the space is well formed.
func (s *Space) Validate() error {
	if s.VectorDims < 1 {
		return fmt.Errorf("costspace: VectorDims = %d, need >= 1", s.VectorDims)
	}
	for i, d := range s.Scalars {
		if d.Weight == nil {
			return fmt.Errorf("costspace: scalar dim %d (%q) has nil weight function", i, d.Name)
		}
	}
	return nil
}

// Dims returns the total coordinate dimensionality.
func (s *Space) Dims() int { return s.VectorDims + len(s.Scalars) }

// NewPoint assembles a full-space point from a vector coordinate and raw
// scalar values (which are passed through the weighting functions). It
// panics if the slice lengths do not match the space definition, since
// that is always a programming error.
func (s *Space) NewPoint(vec vivaldi.Coord, rawScalars []float64) Point {
	return s.AppendPoint(make(Point, 0, s.Dims()), vec, rawScalars)
}

// AppendPoint appends the point NewPoint would build after dst's
// elements and returns the extended slice (unlike AppendIdealPoint, it
// keeps what dst holds), so a caller refreshing many points can carve
// them all from one slab.
func (s *Space) AppendPoint(dst Point, vec vivaldi.Coord, rawScalars []float64) Point {
	if len(vec) != s.VectorDims {
		panic(fmt.Sprintf("costspace: vector has %d dims, space has %d", len(vec), s.VectorDims))
	}
	if len(rawScalars) != len(s.Scalars) {
		panic(fmt.Sprintf("costspace: %d raw scalars for %d scalar dims", len(rawScalars), len(s.Scalars)))
	}
	dst = append(dst, vec...)
	for i, raw := range rawScalars {
		w := s.Scalars[i].Weight.Weight(raw)
		if w < 0 {
			w = 0 // weighting functions are non-negative by contract
		}
		dst = append(dst, w)
	}
	return dst
}

// IdealPoint returns the point at the given vector coordinate with all
// scalar components zero — the target of physical mapping.
func (s *Space) IdealPoint(vec vivaldi.Coord) Point {
	return s.AppendIdealPoint(nil, vec)
}

// AppendIdealPoint is IdealPoint writing into dst's backing array (dst's
// length is ignored) — the allocation-free variant for hot mapping
// paths that reuse a scratch point. The scalar components pass raw zero
// through the weighting functions, exactly like IdealPoint, so the two
// produce bitwise-identical points.
func (s *Space) AppendIdealPoint(dst Point, vec vivaldi.Coord) Point {
	if len(vec) != s.VectorDims {
		panic(fmt.Sprintf("costspace: vector has %d dims, space has %d", len(vec), s.VectorDims))
	}
	dst = append(dst[:0], vec...)
	for i := range s.Scalars {
		w := s.Scalars[i].Weight.Weight(0)
		if w < 0 {
			w = 0 // weighting functions are non-negative by contract
		}
		dst = append(dst, w)
	}
	return dst
}

// ScalarComponents returns the weighted scalar portion of p.
func (s *Space) ScalarComponents(p Point) []float64 {
	return p[s.VectorDims:]
}

// Distance returns the full-space Euclidean distance between a and b,
// spanning vector and scalar dimensions. It panics on dimension mismatch.
func (s *Space) Distance(a, b Point) float64 {
	if len(a) != s.Dims() || len(b) != s.Dims() {
		panic(fmt.Sprintf("costspace: Distance on %d/%d-dim points in %d-dim space", len(a), len(b), s.Dims()))
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// VectorDistance returns the distance restricted to the vector subspace —
// the quantity virtual placement minimizes (§3.2: "the virtual placement
// algorithm operates only over the vector cost dimensions").
func (s *Space) VectorDistance(a, b Point) float64 {
	var ss float64
	for i := 0; i < s.VectorDims; i++ {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// Bounds is an axis-aligned bounding box over points, used to quantize
// coordinates onto the Hilbert grid.
type Bounds struct {
	Min, Max Point
}

// ComputeBounds returns the bounding box of pts with a small margin so
// boundary points quantize strictly inside the grid. It returns an error
// if pts is empty.
func ComputeBounds(pts []Point, margin float64) (Bounds, error) {
	if len(pts) == 0 {
		return Bounds{}, fmt.Errorf("costspace: ComputeBounds on empty point set")
	}
	dims := len(pts[0])
	b := Bounds{Min: make(Point, dims), Max: make(Point, dims)}
	copy(b.Min, pts[0])
	copy(b.Max, pts[0])
	for _, p := range pts[1:] {
		if len(p) != dims {
			return Bounds{}, fmt.Errorf("costspace: mixed dimensionalities %d and %d", dims, len(p))
		}
		for i, v := range p {
			if v < b.Min[i] {
				b.Min[i] = v
			}
			if v > b.Max[i] {
				b.Max[i] = v
			}
		}
	}
	for i := range b.Min {
		span := b.Max[i] - b.Min[i]
		if span == 0 {
			span = 1 // degenerate dimension: open up a unit interval
		}
		b.Min[i] -= span * margin
		b.Max[i] += span * margin
	}
	return b, nil
}

// QuantizeInto maps p onto a grid with 2^bits cells per dimension
// inside the bounds, clamping out-of-range values to the grid edge. It
// writes into dst's backing array (dst's length is ignored), so hot
// lookup paths reuse one scratch cell buffer.
func (b Bounds) QuantizeInto(dst []uint32, p Point, bits uint) []uint32 {
	cells := uint64(1) << bits
	out := dst[:0]
	for i, v := range p {
		span := b.Max[i] - b.Min[i]
		if span <= 0 {
			out = append(out, 0)
			continue
		}
		f := (v - b.Min[i]) / span
		if f < 0 {
			f = 0
		}
		if f >= 1 {
			f = math.Nextafter(1, 0)
		}
		out = append(out, uint32(f*float64(cells)))
	}
	return out
}
