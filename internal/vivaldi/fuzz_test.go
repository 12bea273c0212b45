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

// FuzzUpdateMatchesReference runs the in-place Config.update on one
// node's packed state and the allocating refUpdate on a Node side by
// side over one sequence of samples. After every sample both must hold
// the same coordinate and error to the bit, and at the end their rngs
// must give the same next draw.
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
		got, rng := newState(1, cfg), rand.New(rand.NewSource(seed))
		want, err := NewNode(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		peer := make([]float64, cfg.Dims+1)
		for step := 0; in.more(); step++ {
			kind, errByte, rttByte := in.next(), in.next(), in.next()
			for i := range peer[:cfg.Dims] {
				v := float64(int8(in.next()))
				switch kind % 4 {
				case 0: // coincident
					peer[i] = got[i]
				case 1: // near-coincident
					peer[i] = got[i] + v*1e-11
				case 2: // nearby
					peer[i] = got[i] + v
				case 3: // far out
					peer[i] = v * float64(1+kind)
				}
			}
			peer[cfg.Dims] = [4]float64{cfg.MinError / 4, 0, cfg.MinError, float64(errByte) / 64}[errByte%4]
			rtt := [6]float64{
				-float64(rttByte), 0, float64(rttByte) * 1e-12, float64(rttByte) * 1e9,
				1 + float64(rttByte)/2, float64(rttByte),
			}[rttByte%6]

			cfg.update(got, peer, rtt, rng)
			refUpdate(want, peer[:cfg.Dims], peer[cfg.Dims], rtt)
			requireSameNode(t, step, 0, got, want)
		}
		if g, w := rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("rngs diverged: next draw %d in place, %d reference", g, w)
		}
	})
}

// requireSameNode fails unless node i's packed state holds the Node's
// coordinate and error to the bit.
func requireSameNode(t *testing.T, step, i int, state []float64, want *Node) {
	t.Helper()
	d := want.cfg.Dims
	got := state[i*(d+1) : (i+1)*(d+1)]
	for k, v := range want.coord {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			t.Fatalf("step %d node %d dim %d: packed %v, reference %v", step, i, k, got[k], v)
		}
	}
	if math.Float64bits(got[d]) != math.Float64bits(want.err) {
		t.Fatalf("step %d node %d: error packed %v, reference %v", step, i, got[d], want.err)
	}
}

// FuzzRoundMatchesReference runs gossip rounds on the packed state
// (runRound) and on one Node per participant (refRunRound), each with
// its own rng from one seed. After every round every node must hold the
// same coordinate and error to the bit, and at the end the rngs must
// give the same next draw.
//
// Two bytes pick n from 2 to 300, then one byte each Dims from 1 to 10
// (past eight the random direction is drawn on the heap), the samples
// per round, the rounds and the seed. A flag byte either leaves every
// node at the origin, where the first samples meet coincident peers and
// draw random directions, or scatters them over a small grid, with
// coincident pairs among them. The rest of the input is a pattern the
// latencies cycle through, zero and negative ones included.
func FuzzRoundMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 40, 9, 3, 4, 7, 0, 12, 40, 3, 250})
	f.Add([]byte{1, 42, 2, 0, 5, 99, 1, 3, 9, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		n := 2 + (in.next()<<8|in.next())%299
		cfg := DefaultConfig()
		cfg.Dims = 1 + in.next()%10
		samples, rounds, seed := 1+in.next()%4, 1+in.next()%6, int64(in.next())
		scatter := in.next()&1 == 1
		pat := in.data
		if len(pat) == 0 {
			pat = []byte{10}
		}
		lat := func(i, j int) float64 { return float64(pat[(i*31+j*17)%len(pat)]) - 4 }

		state, rng := newState(n, cfg), rand.New(rand.NewSource(seed))
		refRng := rand.New(rand.NewSource(seed))
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i], _ = NewNode(cfg, refRng)
			for k := range nodes[i].coord {
				if scatter {
					nodes[i].coord[k] = float64(pat[(i+k)%len(pat)] % 4)
				}
				state[i*(cfg.Dims+1)+k] = nodes[i].coord[k]
			}
		}
		for r := 0; r < rounds; r++ {
			runRound(state, &cfg, lat, samples, rng)
			refRunRound(nodes, lat, samples, refRng)
			for i, nd := range nodes {
				requireSameNode(t, r, i, state, nd)
			}
		}
		if g, w := rng.Int63(), refRng.Int63(); g != w {
			t.Fatalf("rngs diverged: next draw %d packed, %d reference", g, w)
		}
	})
}
