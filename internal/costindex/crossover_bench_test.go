package costindex

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
)

// The crossover suite behind the patchBudget numbers: rebuild cost at
// each scale, and per-query cost as the patch overlay grows. Run with
//
//	go test ./internal/costindex/ -run '^$' -bench 'Crossover' -benchtime 2s
//
// and see the patchBudget comment for the measured results.

func crossoverFixture(n int, rng *rand.Rand) (*costspace.Space, []costspace.Point) {
	space := costspace.NewLatencyLoadSpace(1.0)
	pts := make([]costspace.Point, n)
	for i := range pts {
		p := make(costspace.Point, space.Dims())
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return space, pts
}

func BenchmarkCrossoverRebuild(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			space, pts := crossoverFixture(n, rand.New(rand.NewSource(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(space, pts, uint64(i))
			}
		})
	}
}

func BenchmarkCrossoverQuery(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, patches := range []int{0, 16, 64, 256, 1024} {
			if patches >= n {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/patched=%d", n, patches), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				space, pts := crossoverFixture(n, rng)
				x := Build(space, pts, 0)
				// Grow the overlay past the default budget by hand:
				// benchmarks size it directly to chart the curve.
				x.patched = make(map[int32]costspace.Point, patches)
				for len(x.patched) < patches {
					id := int32(rng.Intn(n))
					p := pts[id].Clone()
					p[0] += rng.Float64() * 10
					x.patched[id] = p
				}
				q := make(costspace.Point, space.Dims())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range q {
						q[j] = rng.Float64() * 100
					}
					x.Nearest(q, nil)
				}
			})
		}
	}
}
