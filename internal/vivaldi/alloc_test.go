package vivaldi

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
)

// TestUpdateDoesNotAllocate pins the in-place update: no allocation on
// either branch, toward a distinct peer or off a coincident one, for
// every dimensionality the random direction draws on the stack.
func TestUpdateDoesNotAllocate(t *testing.T) {
	for dims := 1; dims <= 8; dims++ {
		cfg := DefaultConfig()
		cfg.Dims = dims
		self, peer := newState(1, cfg), newState(1, cfg)
		rng := rand.New(rand.NewSource(int64(dims)))
		peer[dims] = 0.5
		far := testing.AllocsPerRun(50, func() {
			for i := range dims {
				peer[i] = self[i] + 10
			}
			cfg.update(self, peer, 20, rng)
		})
		coincident := testing.AllocsPerRun(50, func() {
			copy(peer, self[:dims])
			cfg.update(self, peer, 20, rng)
		})
		if far != 0 || coincident != 0 {
			t.Fatalf("Dims %d: update allocates %v toward a peer, %v off a coincident one; want 0", dims, far, coincident)
		}
	}
}

func newTestTicker(t *testing.T, n int) *Ticker {
	t.Helper()
	clk := simtime.NewVirtual()
	t.Cleanup(clk.Stop)
	lat := func(i, j int) float64 { return float64(1 + (i*7+j*13)%50) }
	tk, err := NewTicker(n, lat, DefaultConfig(), 2, time.Second, clk, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tk.Start()
	clk.Sleep(3*time.Second + time.Millisecond)
	tk.Stop()
	return tk
}

// TestTickerEmbeddingAllocsDoNotGrowWithN pins a snapshot to a fixed
// handful of allocations: the result, its two slices and the one array
// behind every coordinate.
func TestTickerEmbeddingAllocsDoNotGrowWithN(t *testing.T) {
	for _, n := range []int{4, 300, 3000} {
		tk := newTestTicker(t, n)
		if allocs := testing.AllocsPerRun(10, func() { tk.Embedding() }); allocs > 4 {
			t.Fatalf("n = %d: Embedding allocates %v, want <= 4", n, allocs)
		}
	}
}

// TestEmbeddingCoordsDoNotAlias checks that the coordinates sharing one
// array are still independent values: appending to one leaves its
// neighbour alone, and two snapshots share no storage.
func TestEmbeddingCoordsDoNotAlias(t *testing.T) {
	tk := newTestTicker(t, 16)
	emb := tk.Embedding()
	for i := 0; i+1 < len(emb.Coords); i++ {
		next := emb.Coords[i+1].Clone()
		grown := append(emb.Coords[i], 1e9)
		grown[0] = -1e9
		for k := range next {
			if emb.Coords[i+1][k] != next[k] {
				t.Fatalf("appending to coordinate %d overwrote coordinate %d", i, i+1)
			}
		}
	}

	a, b := tk.Embedding(), tk.Embedding()
	keep := make([]Coord, len(b.Coords))
	for i, c := range b.Coords {
		keep[i] = c.Clone()
	}
	for _, c := range a.Coords {
		for k := range c {
			c[k] = 12345
		}
	}
	for i := range a.Errors {
		a.Errors[i] = 12345
	}
	for i, c := range b.Coords {
		if c.Distance(keep[i]) != 0 {
			t.Fatalf("writing one snapshot changed coordinate %d of another", i)
		}
		if b.Errors[i] == 12345 {
			t.Fatalf("writing one snapshot changed error %d of another", i)
		}
	}
}
