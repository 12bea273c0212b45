package hilbert

import "fmt"

// mustNew is New for curve shapes a test knows are valid.
func mustNew(dims, bits uint) Curve {
	c, err := New(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// encode is MustEncodeInPlace on a copy of coords.
func encode(c Curve, coords []uint32) uint64 {
	return c.MustEncodeInPlace(append([]uint32(nil), coords...))
}

// Decode maps a Hilbert index back to grid coordinates, the inverse the
// encoder is tested against. Keys with bits set above KeyBits are
// rejected.
func (c Curve) Decode(key uint64) ([]uint32, error) {
	if kb := c.KeyBits(); kb < 64 && key>>kb != 0 {
		return nil, fmt.Errorf("hilbert: key %#x exceeds %d significant bits", key, kb)
	}
	x := c.unpackTranspose(key)
	c.transposeToAxes(x)
	return x, nil
}

// transposeToAxes converts the transposed index form back to coordinates
// in place (Skilling's TransposetoAxes).
func (c Curve) transposeToAxes(x []uint32) {
	n := int(c.dims)
	m := uint32(2) << (c.bits - 1)

	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t

	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// unpackTranspose splits a key back into transpose form.
func (c Curve) unpackTranspose(key uint64) []uint32 {
	x := make([]uint32, c.dims)
	for b := 0; b < int(c.bits); b++ {
		for i := int(c.dims) - 1; i >= 0; i-- {
			x[i] |= uint32(key&1) << uint(b)
			key >>= 1
		}
	}
	return x
}
