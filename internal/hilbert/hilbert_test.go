package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := New(2, 0); err == nil {
		t.Fatal("bits=0 accepted")
	}
	if _, err := New(5, 13); err == nil {
		t.Fatal("dims*bits=65 accepted")
	}
	if _, err := New(4, 16); err != nil {
		t.Fatal("dims*bits=64 rejected")
	}
	// Cells are uint32: 40 bits fit a 64-bit key but not a coordinate.
	if _, err := New(1, 40); err == nil {
		t.Fatal("bits=40 accepted")
	}
	if _, err := New(2, 32); err != nil {
		t.Fatal("bits=32 rejected")
	}
}

func TestAccessors(t *testing.T) {
	c := mustNew(3, 7)
	if c.Dims() != 3 || c.Bits() != 7 || c.KeyBits() != 21 {
		t.Fatalf("accessors wrong: %v %v %v", c.Dims(), c.Bits(), c.KeyBits())
	}
	if c.MaxCoord() != 127 {
		t.Fatalf("MaxCoord = %d, want 127", c.MaxCoord())
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustNew(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong coord count accepted")
		}
	}()
	c.MustEncodeInPlace([]uint32{1})
}

func TestDecodeValidation(t *testing.T) {
	c := mustNew(2, 4)
	if _, err := c.Decode(1 << 8); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := c.Decode(255); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
}

func TestMustEncodePanicsOnBadInput(t *testing.T) {
	c := mustNew(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range coord accepted")
		}
	}()
	c.MustEncodeInPlace([]uint32{99, 0})
}

// The Hilbert curve must visit every cell exactly once: encode must be a
// bijection onto [0, 2^(dims*bits)).
func TestEncodeBijectionSmall(t *testing.T) {
	cases := []struct{ dims, bits uint }{
		{1, 4}, {2, 1}, {2, 2}, {2, 3}, {3, 2}, {4, 2}, {3, 3},
	}
	for _, tc := range cases {
		c := mustNew(tc.dims, tc.bits)
		total := uint64(1) << c.KeyBits()
		seen := make(map[uint64]bool, total)
		coords := make([]uint32, tc.dims)
		var walk func(dim uint)
		walk = func(dim uint) {
			if dim == tc.dims {
				k := encode(c, coords)
				if k >= total {
					t.Fatalf("dims=%d bits=%d: key %d out of range %d", tc.dims, tc.bits, k, total)
				}
				if seen[k] {
					t.Fatalf("dims=%d bits=%d: duplicate key %d", tc.dims, tc.bits, k)
				}
				seen[k] = true
				return
			}
			for v := uint32(0); v <= c.MaxCoord(); v++ {
				coords[dim] = v
				walk(dim + 1)
			}
		}
		walk(0)
		if uint64(len(seen)) != total {
			t.Fatalf("dims=%d bits=%d: visited %d cells, want %d", tc.dims, tc.bits, len(seen), total)
		}
	}
}

// The defining locality property: consecutive Hilbert indices map to grid
// cells that differ by exactly 1 in exactly one dimension.
func TestAdjacencyProperty(t *testing.T) {
	cases := []struct{ dims, bits uint }{
		{2, 4}, {3, 3}, {4, 2},
	}
	for _, tc := range cases {
		c := mustNew(tc.dims, tc.bits)
		total := uint64(1) << c.KeyBits()
		prev, err := c.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k < total; k++ {
			cur, err := c.Decode(k)
			if err != nil {
				t.Fatal(err)
			}
			diff := 0
			for i := range cur {
				d := int64(cur[i]) - int64(prev[i])
				if d != 0 {
					diff++
					if d != 1 && d != -1 {
						t.Fatalf("dims=%d bits=%d: step %d jumps by %d in dim %d", tc.dims, tc.bits, k, d, i)
					}
				}
			}
			if diff != 1 {
				t.Fatalf("dims=%d bits=%d: step %d changes %d dims, want 1", tc.dims, tc.bits, k, diff)
			}
			prev = cur
		}
	}
}

// Roundtrip property across random dims/bits/coords.
func TestRoundtripProperty(t *testing.T) {
	f := func(dimsRaw, bitsRaw uint8, seed int64) bool {
		dims := uint(dimsRaw%5) + 1 // 1..5
		bits := uint(bitsRaw%10) + 1
		if dims*bits > 64 {
			bits = 64 / dims
		}
		c, err := New(dims, bits)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		coords := make([]uint32, dims)
		for i := range coords {
			coords[i] = uint32(rng.Int63n(int64(c.MaxCoord()) + 1))
		}
		back, err := c.Decode(encode(c, coords))
		if err != nil {
			return false
		}
		for i := range coords {
			if coords[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOneDimensionIsIdentityOrder(t *testing.T) {
	// In 1-D the Hilbert curve is just the line: key ordering must follow
	// coordinate ordering.
	c := mustNew(1, 8)
	var prevKey uint64
	for v := uint32(0); v <= c.MaxCoord(); v++ {
		k := encode(c, []uint32{v})
		if v > 0 && k != prevKey+1 {
			t.Fatalf("1-D keys not sequential: coord %d -> key %d (prev %d)", v, k, prevKey)
		}
		prevKey = k
	}
}

func TestKnownOrder2x2(t *testing.T) {
	// For dims=2, bits=1 the curve visits the four cells in an order where
	// each consecutive pair is adjacent; verify it starts at the origin
	// cell, as Skilling's construction guarantees.
	c := mustNew(2, 1)
	first, err := c.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 || first[1] != 0 {
		t.Fatalf("curve should start at origin, got %v", first)
	}
}

// Locality in the useful direction: points close on the curve are close in
// space. Measured as mean Euclidean-squared distance of key neighbors,
// which must be far below that of random cell pairs.
func TestLocalityBeatsRandomPairs(t *testing.T) {
	c := mustNew(2, 8)
	rng := rand.New(rand.NewSource(1))
	total := uint64(1) << c.KeyBits()
	var adjSum, rndSum float64
	const samples = 4000
	for s := 0; s < samples; s++ {
		k := uint64(rng.Int63n(int64(total - 1)))
		a, _ := c.Decode(k)
		b, _ := c.Decode(k + 1)
		adjSum += distSq(a, b)
		p, _ := c.Decode(uint64(rng.Int63n(int64(total))))
		q, _ := c.Decode(uint64(rng.Int63n(int64(total))))
		rndSum += distSq(p, q)
	}
	if adjSum*100 > rndSum {
		t.Fatalf("curve locality too weak: adjacent mean %v vs random mean %v",
			adjSum/samples, rndSum/samples)
	}
}

func distSq(a, b []uint32) float64 {
	var s float64
	for i := range a {
		d := float64(int64(a[i]) - int64(b[i]))
		s += d * d
	}
	return s
}

// BenchmarkEncode3D16 encodes random cells: a constant input would let
// the branch predictor learn a branchy transform and hide its cost.
func BenchmarkEncode3D16(b *testing.B) {
	c := mustNew(3, 16)
	rng := rand.New(rand.NewSource(1))
	var inputs [1024][3]uint32
	for i := range inputs {
		for j := range inputs[i] {
			inputs[i][j] = rng.Uint32() & c.MaxCoord()
		}
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := inputs[i%len(inputs)]
		sink += c.MustEncodeInPlace(buf[:])
	}
	_ = sink
}

func BenchmarkDecode3D16(b *testing.B) {
	c := mustNew(3, 16)
	key := encode(c, []uint32{12345, 54321, 33333})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(key); err != nil {
			b.Fatal(err)
		}
	}
}
