package hilbert

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refAxesToTranspose is Skilling's AxestoTranspose as the package had it
// before the masked form: one branch per (level, axis) and one per bit
// of the Gray parity word. It is the reference the encoder is held to.
func refAxesToTranspose(c Curve, x []uint32) {
	n := int(c.dims)
	m := uint32(1) << (c.bits - 1)

	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}

	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// refPackTranspose interleaves the transpose form bit by bit.
func refPackTranspose(c Curve, x []uint32) uint64 {
	var key uint64
	for b := int(c.bits) - 1; b >= 0; b-- {
		for i := 0; i < int(c.dims); i++ {
			bit := uint64(x[i]>>uint(b)) & 1
			key = key<<1 | bit
		}
	}
	return key
}

func refEncode(c Curve, coords []uint32) uint64 {
	x := append([]uint32(nil), coords...)
	refAxesToTranspose(c, x)
	return refPackTranspose(c, x)
}

// checkAgainstReference encodes coords both ways — the encoder and the
// reference — and decodes the key back.
func checkAgainstReference(t *testing.T, c Curve, coords []uint32) {
	t.Helper()
	want := refEncode(c, coords)
	got := encode(c, coords)
	if got != want {
		t.Fatalf("dims=%d bits=%d MustEncodeInPlace(%v) = %#x, reference %#x", c.dims, c.bits, coords, got, want)
	}
	back, err := c.Decode(got)
	if err != nil {
		t.Fatalf("dims=%d bits=%d Decode(%#x): %v", c.dims, c.bits, got, err)
	}
	for i := range coords {
		if back[i] != coords[i] {
			t.Fatalf("dims=%d bits=%d Decode(Encode(%v)) = %v", c.dims, c.bits, coords, back)
		}
	}
}

// TestEncodeMatchesReference holds the masked transform, the prefix-XOR
// Gray word and the byte-spread packing to the branchy reference on
// every legal curve shape, including the bit-loop packing of dims > 8.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := 0
	for dims := uint(1); dims <= 64; dims++ {
		for bits := uint(1); bits <= 32 && dims*bits <= 64; bits++ {
			c := mustNew(dims, bits)
			shapes++
			max := c.MaxCoord()
			coords := make([]uint32, dims)
			for trial := 0; trial < 300; trial++ {
				for i := range coords {
					coords[i] = rng.Uint32() & max
				}
				checkAgainstReference(t, c, coords)
			}
			for i := range coords {
				coords[i] = max
			}
			checkAgainstReference(t, c, coords)
			for axis := range coords {
				for b := uint(0); b < bits; b++ {
					for i := range coords {
						coords[i] = 0
					}
					coords[axis] = 1 << b
					checkAgainstReference(t, c, coords)
				}
			}
		}
	}
	if shapes != 248 {
		t.Fatalf("covered %d curve shapes, want 248", shapes)
	}
}

// FuzzEncodeMatchesReference: bytes → (dims, bits, coordinates). The
// first byte picks dims in 1..64, the second picks bits among the values
// legal for it, and the rest fill the coordinates four bytes at a time
// (missing bytes read as zero).
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add([]byte{2, 15, 0x39, 0x30, 0, 0, 0x31, 0xd4, 0, 0, 0x35, 0x82, 0, 0})
	f.Add([]byte{0, 31, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{8, 6, 1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 8, 0, 0, 0, 16, 0, 0, 0, 32, 0, 0, 0, 64, 0, 0, 0})
	f.Add([]byte{63, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := uint(data[0])%64 + 1
		maxBits := 64 / dims
		if maxBits > 32 {
			maxBits = 32
		}
		bits := uint(data[1])%maxBits + 1
		c := mustNew(dims, bits)
		data = data[2:]
		coords := make([]uint32, dims)
		for i := range coords {
			var word [4]byte
			if len(data) > 0 {
				data = data[copy(word[:], data):]
			}
			coords[i] = binary.LittleEndian.Uint32(word[:]) & c.MaxCoord()
		}
		checkAgainstReference(t, c, coords)
	})
}
