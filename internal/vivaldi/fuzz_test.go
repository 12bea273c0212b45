package vivaldi

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzBytes hands out an input byte by byte; an exhausted input reads as
// zeroes, so every prefix of an input is an input.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) more() bool { return len(b.data) > 0 }

func (b *fuzzBytes) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

// FuzzUpdateMatchesReference runs the in-place Node.Update and the
// allocating refUpdate side by side over one sequence of samples. After
// every sample both nodes must hold the same coordinate and error to the
// bit, and at the end their rngs must give the same next draw.
//
// The first byte picks Dims from 1 to 10, past the eight dimensions the
// random direction draws on the stack; the second seeds both rngs; the
// third sets the timestep CC, so that a step computed with another
// association than the reference's rounds differently. Each sample then
// reads a peer byte, an error byte, an rtt byte and one byte per
// dimension. The peer coincides with the node, sits within about
// 1e-9 of it (either side of the coincidence threshold), sits tens of
// milliseconds away, or lies far out; the rtt is negative, zero, tiny,
// huge or ordinary; the peer's error is below MinError, zero, at it or
// ordinary.
func FuzzUpdateMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		cfg := DefaultConfig()
		cfg.Dims = 1 + in.next()%10
		seed := int64(in.next())
		cfg.CC = float64(1+in.next()) / 256
		got, err := NewNode(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewNode(cfg, rand.New(rand.NewSource(seed)))
		peer := make(Coord, cfg.Dims)
		for step := 0; in.more(); step++ {
			kind, errByte, rttByte := in.next(), in.next(), in.next()
			for i := range peer {
				v := float64(int8(in.next()))
				switch kind % 4 {
				case 0: // coincident
					peer[i] = got.coord[i]
				case 1: // near-coincident
					peer[i] = got.coord[i] + v*1e-11
				case 2: // nearby
					peer[i] = got.coord[i] + v
				case 3: // far out
					peer[i] = v * float64(1+kind)
				}
			}
			peerErr := [4]float64{cfg.MinError / 4, 0, cfg.MinError, float64(errByte) / 64}[errByte%4]
			rtt := [6]float64{
				-float64(rttByte), 0, float64(rttByte) * 1e-12, float64(rttByte) * 1e9,
				1 + float64(rttByte)/2, float64(rttByte),
			}[rttByte%6]

			got.Update(peer, peerErr, rtt)
			refUpdate(want, peer, peerErr, rtt)
			for i := range got.coord {
				if math.Float64bits(got.coord[i]) != math.Float64bits(want.coord[i]) {
					t.Fatalf("step %d dim %d: in place %v, reference %v", step, i, got.coord[i], want.coord[i])
				}
			}
			if math.Float64bits(got.err) != math.Float64bits(want.err) {
				t.Fatalf("step %d: error in place %v, reference %v", step, got.err, want.err)
			}
		}
		if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("rngs diverged: next draw %d in place, %d reference", g, w)
		}
	})
}
