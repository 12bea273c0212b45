package costspace

import (
	"testing"

	"github.com/hourglass/sbon/internal/vivaldi"
)

// The paper lists CPU load, memory consumption, and disk capacity as
// scalar cost examples (§3.1). These tests exercise spaces with several
// scalar dimensions and heterogeneous weighting functions.

func multiScalarSpace() *Space {
	return &Space{
		VectorDims: 2,
		Scalars: []ScalarDim{
			{Name: "cpu-load", Weight: SquaredWeight{Scale: 100}},
			{Name: "memory", Weight: LinearWeight{Scale: 50}},
			{Name: "disk", Weight: HingeWeight{Threshold: 0.8, Scale: 200}},
		},
	}
}

func TestMultiScalarSpaceDims(t *testing.T) {
	s := multiScalarSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Dims(); got != 5 {
		t.Fatalf("Dims() = %d, want 5", got)
	}
}

func TestMultiScalarPointAssembly(t *testing.T) {
	s := multiScalarSpace()
	p := s.NewPoint(vivaldi.Coord{1, 2}, []float64{0.5, 0.4, 0.9})
	want := []float64{1, 2, 25, 20, 20} // 100·0.25, 50·0.4, 200·(0.9−0.8)
	for i, w := range want {
		if diff := p[i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("p[%d] = %v, want %v", i, p[i], w)
		}
	}
	sc := s.ScalarComponents(p)
	if len(sc) != 3 {
		t.Fatalf("ScalarComponents len = %d", len(sc))
	}
}

// A node terrible on any single scalar dimension must lose to a node
// mediocre on all of them, when the weighting makes that dimension
// dominant — the trade-off expression §3.1 promises.
func TestMultiScalarTradeoff(t *testing.T) {
	s := multiScalarSpace()
	target := s.IdealPoint(vivaldi.Coord{0, 0})
	diskFull := s.NewPoint(vivaldi.Coord{1, 0}, []float64{0.1, 0.1, 1.0}) // hinge: 200·0.2 = 40
	mediocre := s.NewPoint(vivaldi.Coord{5, 0}, []float64{0.3, 0.3, 0.5}) // 9 + 15 + 0
	if s.Distance(target, diskFull) <= s.Distance(target, mediocre) {
		t.Fatalf("disk-full node should rank worse: %v vs %v",
			s.Distance(target, diskFull), s.Distance(target, mediocre))
	}
}

func TestMultiScalarIdealPointAllZero(t *testing.T) {
	s := multiScalarSpace()
	p := s.IdealPoint(vivaldi.Coord{3, 4})
	for i, comp := range s.ScalarComponents(p) {
		if comp != 0 {
			t.Fatalf("ideal scalar %d = %v, want 0", i, comp)
		}
	}
}

func TestMultiScalarQuantizeRoundtrip(t *testing.T) {
	s := multiScalarSpace()
	pts := []Point{
		s.NewPoint(vivaldi.Coord{0, 0}, []float64{0, 0, 0}),
		s.NewPoint(vivaldi.Coord{100, 100}, []float64{1, 1, 1}),
		s.NewPoint(vivaldi.Coord{50, 25}, []float64{0.5, 0.2, 0.9}),
	}
	b, err := ComputeBounds(pts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 10
	for _, p := range pts {
		cells := b.QuantizeInto(nil, p, bits)
		if len(cells) != 5 {
			t.Fatalf("quantized to %d cells", len(cells))
		}
		back := b.Dequantize(cells, bits)
		if len(back) != 5 {
			t.Fatalf("dequantized to %d dims", len(back))
		}
	}
}
