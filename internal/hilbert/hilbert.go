// Package hilbert implements a d-dimensional Hilbert space-filling curve.
//
// The paper's physical-mapping step stores each node's cost-space
// coordinate in a DHT "after transforming its multi-dimensional coordinate
// to a one-dimensional hash key with a Hilbert curve" (§3.2). The Hilbert
// curve is chosen over simpler interleavings because consecutive keys are
// always adjacent cells, so a DHT range around a key corresponds to a
// compact region of the cost space.
//
// The implementation follows John Skilling, "Programming the Hilbert
// curve", AIP Conf. Proc. 707 (2004): coordinates are converted to the
// "transpose" form of the Hilbert index, which is then packed by bit
// interleaving into a single uint64 key.
package hilbert

import "fmt"

// Curve describes a Hilbert curve over a Dims-dimensional grid with
// 2^Bits cells per dimension. Dims*Bits must be at most 64 so that keys
// fit in a uint64, and Bits at most 32 so that cells fit in a uint32.
type Curve struct {
	dims uint
	bits uint
}

// New returns a curve over dims dimensions with bits bits of resolution
// per dimension.
func New(dims, bits uint) (Curve, error) {
	switch {
	case dims < 1:
		return Curve{}, fmt.Errorf("hilbert: dims = %d, need >= 1", dims)
	case bits < 1:
		return Curve{}, fmt.Errorf("hilbert: bits = %d, need >= 1", bits)
	case bits > 32:
		return Curve{}, fmt.Errorf("hilbert: bits = %d exceeds 32-bit cell coordinates", bits)
	case dims*bits > 64:
		return Curve{}, fmt.Errorf("hilbert: dims*bits = %d exceeds 64-bit keys", dims*bits)
	}
	return Curve{dims: dims, bits: bits}, nil
}

// Dims returns the dimensionality of the curve.
func (c Curve) Dims() uint { return c.dims }

// Bits returns the per-dimension resolution in bits.
func (c Curve) Bits() uint { return c.bits }

// KeyBits returns the total number of significant bits in a key.
func (c Curve) KeyBits() uint { return c.dims * c.bits }

// MaxCoord returns the largest valid coordinate value per dimension.
func (c Curve) MaxCoord() uint32 { return uint32(1)<<c.bits - 1 }

// MustEncodeInPlace maps grid coordinates to the Hilbert index, using
// coords itself as scratch: the transpose transform overwrites it, so
// hot paths reuse one cell buffer. It panics if the coordinate count or
// range is invalid, which only a caller that skipped quantizing to the
// curve can cause.
func (c Curve) MustEncodeInPlace(coords []uint32) uint64 {
	if uint(len(coords)) != c.dims {
		panic(fmt.Sprintf("hilbert: got %d coords for %d-dim curve", len(coords), c.dims))
	}
	max := c.MaxCoord()
	for i, v := range coords {
		if v > max {
			panic(fmt.Sprintf("hilbert: coord %d = %d exceeds max %d", i, v, max))
		}
	}
	c.axesToTranspose(coords)
	return c.packTranspose(coords)
}

// axesToTranspose converts coordinates in place to the transposed Hilbert
// index form (Skilling's AxestoTranspose). Skilling's per-(level, axis)
// choice — invert the low bits of x[0] when the axis bit is set, swap
// them with x[i]'s otherwise — depends on coordinate bits a predictor
// cannot guess, so it is taken by mask instead of by branch.
func (c Curve) axesToTranspose(x []uint32) {
	n := int(c.dims)

	// Inverse undo excess work.
	x0 := x[0]
	for sh := c.bits - 1; sh > 0; sh-- {
		p := uint32(1)<<sh - 1
		x0 ^= p & -(x0 >> sh & 1) // axis 0 has nothing to swap with itself
		for i := 1; i < n; i++ {
			mask := -(x[i] >> sh & 1)
			t := (x0 ^ x[i]) & p &^ mask
			x0 ^= t ^ p&mask
			x[i] ^= t
		}
	}
	x[0] = x0

	// Gray encode. Bit j of t is the parity of the bits of x[n-1] above
	// j: a suffix XOR, folded in five doubling steps.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := x[n-1] >> 1
	t ^= t >> 1
	t ^= t >> 2
	t ^= t >> 4
	t ^= t >> 8
	t ^= t >> 16
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// spreadMaxDims is the widest curve the byte-spread table covers; wider
// curves (at most 64/dims <= 7 bits per axis) pack bit by bit.
const spreadMaxDims = 8

// spread[n][b] places bit k of byte b at bit k*n: one axis byte laid
// out at the stride of an n-dimensional interleave.
var spread = func() (tab [spreadMaxDims + 1][256]uint64) {
	for n := 1; n <= spreadMaxDims; n++ {
		for b := 0; b < 256; b++ {
			for k := 0; k < 8; k++ {
				tab[n][b] |= uint64(b>>k&1) << (k * n)
			}
		}
	}
	return tab
}()

// packTranspose interleaves the transpose form into a single key. Bit b
// (counting from the most significant bit, b = bits-1 .. 0) of x[i]
// becomes bit (b*dims + (dims-1-i)) of the key.
func (c Curve) packTranspose(x []uint32) uint64 {
	n := int(c.dims)
	var key uint64
	if n <= spreadMaxDims {
		tab := &spread[n]
		for i, v := range x {
			var w uint64
			for sh := 0; v != 0; sh += 8 * n {
				w |= tab[v&0xff] << sh
				v >>= 8
			}
			key |= w << (n - 1 - i)
		}
		return key
	}
	for b := int(c.bits) - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			bit := uint64(x[i]>>uint(b)) & 1
			key = key<<1 | bit
		}
	}
	return key
}
