package costspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hourglass/sbon/internal/vivaldi"
)

// Dequantize maps grid cell coordinates back to the cell-center point:
// the inverse the quantization tests hold QuantizeInto to.
func (b Bounds) Dequantize(cells []uint32, bits uint) Point {
	n := float64(uint64(1) << bits)
	out := make(Point, len(cells))
	for i, c := range cells {
		span := b.Max[i] - b.Min[i]
		out[i] = b.Min[i] + (float64(c)+0.5)/n*span
	}
	return out
}

func figure2Space() *Space {
	return NewLatencyLoadSpace(100)
}

func TestSquaredWeight(t *testing.T) {
	w := SquaredWeight{Scale: 100}
	if got := w.Weight(0); got != 0 {
		t.Fatalf("Weight(0) = %v, want 0", got)
	}
	if got := w.Weight(0.5); got != 25 {
		t.Fatalf("Weight(0.5) = %v, want 25", got)
	}
	if got := w.Weight(1); got != 100 {
		t.Fatalf("Weight(1) = %v, want 100", got)
	}
	if got := w.Weight(-1); got != 0 {
		t.Fatalf("Weight(-1) = %v, want 0 (clamped)", got)
	}
}

func TestLinearWeight(t *testing.T) {
	w := LinearWeight{Scale: 10}
	if got := w.Weight(0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Weight(0.3) = %v, want 3", got)
	}
	if got := w.Weight(-0.3); got != 0 {
		t.Fatalf("Weight(-0.3) = %v, want 0", got)
	}
}

func TestExponentialWeight(t *testing.T) {
	w := ExponentialWeight{Scale: 1, Rate: 1}
	if got := w.Weight(0); got != 0 {
		t.Fatalf("Weight(0) = %v, want 0", got)
	}
	if got := w.Weight(1); math.Abs(got-(math.E-1)) > 1e-12 {
		t.Fatalf("Weight(1) = %v, want e-1", got)
	}
}

func TestHingeWeight(t *testing.T) {
	w := HingeWeight{Threshold: 0.5, Scale: 10}
	if got := w.Weight(0.4); got != 0 {
		t.Fatalf("Weight(0.4) = %v, want 0", got)
	}
	if got := w.Weight(0.7); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Weight(0.7) = %v, want 2", got)
	}
}

// All weighting functions must be non-negative with zero at the ideal
// value and monotone non-decreasing — the paper's §3.1 contract.
func TestWeightFuncContractProperty(t *testing.T) {
	funcs := []WeightFunc{
		SquaredWeight{Scale: 100},
		LinearWeight{Scale: 50},
		ExponentialWeight{Scale: 10, Rate: 2},
		HingeWeight{Threshold: 0.5, Scale: 20},
	}
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 10))
		b = math.Abs(math.Mod(b, 10))
		lo, hi := math.Min(a, b), math.Max(a, b)
		for _, w := range funcs {
			if w.Weight(0) != 0 {
				return false
			}
			wl, wh := w.Weight(lo), w.Weight(hi)
			if wl < 0 || wh < 0 || wl > wh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightFuncNames(t *testing.T) {
	for _, w := range []WeightFunc{
		SquaredWeight{Scale: 1}, LinearWeight{Scale: 1},
		ExponentialWeight{Scale: 1, Rate: 1}, HingeWeight{Threshold: 0, Scale: 1},
	} {
		if w.Name() == "" {
			t.Fatalf("%T has empty Name()", w)
		}
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := figure2Space().Validate(); err != nil {
		t.Fatalf("figure-2 space invalid: %v", err)
	}
	if err := (&Space{VectorDims: 0}).Validate(); err == nil {
		t.Fatal("0-dim latency space accepted")
	}
	s := &Space{VectorDims: 2, Scalars: []ScalarDim{{Name: "x", Weight: nil}}}
	if err := s.Validate(); err == nil {
		t.Fatal("nil weight function accepted")
	}
}

func TestSpaceDims(t *testing.T) {
	s := figure2Space()
	if got := s.Dims(); got != 3 {
		t.Fatalf("Dims() = %d, want 3", got)
	}
	if got := (&Space{VectorDims: 4}).Dims(); got != 4 {
		t.Fatalf("Dims() = %d, want 4", got)
	}
}

func TestNewPointAppliesWeighting(t *testing.T) {
	s := figure2Space()
	p := s.NewPoint(vivaldi.Coord{3, 4}, []float64{0.5})
	if p[0] != 3 || p[1] != 4 {
		t.Fatalf("vector part = %v", p[:2])
	}
	if p[2] != 25 { // 100 * 0.5^2
		t.Fatalf("scalar part = %v, want 25", p[2])
	}
}

func TestNewPointPanicsOnMismatch(t *testing.T) {
	s := figure2Space()
	assertPanics(t, func() { s.NewPoint(vivaldi.Coord{1}, []float64{0}) })
	assertPanics(t, func() { s.NewPoint(vivaldi.Coord{1, 2}, nil) })
}

func TestIdealPointZeroScalars(t *testing.T) {
	s := figure2Space()
	p := s.IdealPoint(vivaldi.Coord{7, 8})
	if p[0] != 7 || p[1] != 8 || p[2] != 0 {
		t.Fatalf("IdealPoint = %v", p)
	}
}

func TestVectorAndScalarAccessors(t *testing.T) {
	s := figure2Space()
	p := s.NewPoint(vivaldi.Coord{1, 2}, []float64{1})
	if p[0] != 1 || p[1] != 2 {
		t.Fatalf("vector part = %v", p[:s.VectorDims])
	}
	sc := s.ScalarComponents(p)
	if len(sc) != 1 || sc[0] != 100 {
		t.Fatalf("ScalarComponents = %v", sc)
	}
}

// The Figure 3 situation: N1 is closer in latency but heavily loaded, so
// its full-space distance must exceed lightly loaded N2's.
func TestFigure3LoadMakesNearNodeFar(t *testing.T) {
	s := figure2Space()
	target := s.IdealPoint(vivaldi.Coord{0, 0})
	n1 := s.NewPoint(vivaldi.Coord{5, 0}, []float64{0.9})  // 5ms away, load 0.9 -> 81
	n2 := s.NewPoint(vivaldi.Coord{20, 0}, []float64{0.1}) // 20ms away, load 0.1 -> 1
	if s.VectorDistance(target, n1) >= s.VectorDistance(target, n2) {
		t.Fatal("test setup broken: N1 should be nearer in latency")
	}
	if s.Distance(target, n1) <= s.Distance(target, n2) {
		t.Fatalf("full-space distance should prefer N2: d(N1)=%v d(N2)=%v",
			s.Distance(target, n1), s.Distance(target, n2))
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	s := figure2Space()
	assertPanics(t, func() { s.Distance(Point{1, 2}, Point{1, 2, 3}) })
}

// Full-space distance must satisfy the metric axioms (it is Euclidean).
func TestDistanceMetricAxiomsProperty(t *testing.T) {
	s := figure2Space()
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a := Point{clamp(a1), clamp(a2), math.Abs(clamp(a3))}
		b := Point{clamp(b1), clamp(b2), math.Abs(clamp(b3))}
		c := Point{clamp(c1), clamp(c2), math.Abs(clamp(c3))}
		dab, dba := s.Distance(a, b), s.Distance(b, a)
		if dab != dba || dab < 0 {
			return false
		}
		if s.Distance(a, a) != 0 {
			return false
		}
		// Triangle inequality with FP slack.
		return s.Distance(a, c) <= s.Distance(a, b)+s.Distance(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorDistanceIgnoresScalars(t *testing.T) {
	s := figure2Space()
	a := s.NewPoint(vivaldi.Coord{0, 0}, []float64{0})
	b := s.NewPoint(vivaldi.Coord{3, 4}, []float64{1})
	if got := s.VectorDistance(a, b); got != 5 {
		t.Fatalf("VectorDistance = %v, want 5", got)
	}
	if got := s.Distance(a, b); got <= 5 {
		t.Fatalf("full Distance = %v, want > 5 (load dimension)", got)
	}
}

func TestComputeBounds(t *testing.T) {
	pts := []Point{{0, 0, 0}, {10, 20, 5}}
	b, err := ComputeBounds(pts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts[0] {
		if b.Min[i] >= 0 && i != 2 {
			// margin must push min strictly below 0 where span > 0
			t.Fatalf("dim %d: Min %v not below 0", i, b.Min[i])
		}
		if b.Max[i] <= pts[1][i] {
			t.Fatalf("dim %d: Max %v not above %v", i, b.Max[i], pts[1][i])
		}
	}
	if _, err := ComputeBounds(nil, 0.05); err == nil {
		t.Fatal("empty point set accepted")
	}
	if _, err := ComputeBounds([]Point{{1}, {1, 2}}, 0); err == nil {
		t.Fatal("mixed dimensionalities accepted")
	}
}

func TestComputeBoundsDegenerateDimension(t *testing.T) {
	pts := []Point{{5, 1}, {5, 2}}
	b, err := ComputeBounds(pts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Max[0] <= b.Min[0] {
		t.Fatalf("degenerate dim not opened: [%v,%v]", b.Min[0], b.Max[0])
	}
}

func TestQuantizeDequantizeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 50}
	}
	b, err := ComputeBounds(pts, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 10
	cellSpan := 0.0
	for i := range b.Min {
		s := (b.Max[i] - b.Min[i]) / float64(uint64(1)<<bits)
		if s > cellSpan {
			cellSpan = s
		}
	}
	for _, p := range pts {
		cells := b.QuantizeInto(nil, p, bits)
		back := b.Dequantize(cells, bits)
		for i := range p {
			if math.Abs(back[i]-p[i]) > cellSpan {
				t.Fatalf("roundtrip error %v exceeds cell span %v (dim %d)", math.Abs(back[i]-p[i]), cellSpan, i)
			}
		}
	}
}

func TestQuantizeClampsOutOfRange(t *testing.T) {
	b := Bounds{Min: Point{0, 0}, Max: Point{10, 10}}
	const bits = 8
	lo := b.QuantizeInto(nil, Point{-5, -5}, bits)
	hi := b.QuantizeInto(nil, Point{50, 50}, bits)
	if lo[0] != 0 || lo[1] != 0 {
		t.Fatalf("low clamp = %v", lo)
	}
	maxCell := uint32(1)<<bits - 1
	if hi[0] != maxCell || hi[1] != maxCell {
		t.Fatalf("high clamp = %v, want %v", hi, maxCell)
	}
}

// Property: quantization cells are within range for arbitrary points.
func TestQuantizeRangeProperty(t *testing.T) {
	b := Bounds{Min: Point{-100, -100, 0}, Max: Point{100, 100, 100}}
	const bits = 12
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		cells := b.QuantizeInto(nil, Point{x, y, z}, bits)
		for _, c := range cells {
			if uint64(c) >= uint64(1)<<bits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPointClone(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Fatal("Clone not independent")
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
