package placement

import (
	"math"
	"testing"
)

// referenceRelax is relax as it was before a sweep kept squared moves:
// the centroid is scaled into the accumulator, each vertex's move is
// measured with Coord.Distance — one square root per vertex per sweep —
// and the accumulator is copied back. It returns the sweeps it made.
func referenceRelax(p *Problem, maxIter int, tol, eps float64) int {
	num := p.acc
	for iter := 0; iter < maxIter; iter++ {
		maxMove := 0.0
		for vi := range p.Vertices {
			v, adj := &p.Vertices[vi], p.neighbors(vi)
			if v.Pinned || len(adj) == 0 {
				continue
			}
			clear(num)
			var den float64
			for _, e := range adj {
				o, wgt := p.Vertices[e.other].Coord, e.rate
				if eps > 0 {
					dist := v.Coord.Distance(o)
					wgt /= math.Sqrt(dist*dist + eps*eps)
				}
				for k := range num {
					num[k] += wgt * o[k]
				}
				den += wgt
			}
			inv := 1 / den
			for k := range num {
				num[k] *= inv
			}
			if move := num.Distance(v.Coord); move > maxMove {
				maxMove = move
			}
			copy(v.Coord, num)
		}
		if maxMove < tol {
			return iter + 1
		}
	}
	return maxIter
}

// fuzzBytes hands out a fuzz input one byte at a time, zeros once it is
// spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// relaxCase decodes a placement problem and solver settings: 1–4 dims,
// 2–12 vertices (the first always pinned, unpinned ones with or without
// an initial guess), up to two links per vertex with rates from 1e-6 to
// 1e6, a sweep cap of 1–40 and a tolerance from 0 up to 1, and a
// smoothing length that is zero for a third of the inputs.
func relaxCase(data []byte) (p *Problem, maxIter int, tol, eps float64) {
	b := fuzzBytes(data)
	dims, nv := 1+int(b.next()%4), 2+int(b.next()%11)
	coord := func() []float64 {
		c := make([]float64, dims)
		for k := range c {
			c[k] = float64(int16(uint16(b.next())<<8|uint16(b.next()))) / 16
		}
		return c
	}
	p = &Problem{}
	for vi := 0; vi < nv; vi++ {
		flags := b.next()
		v := Vertex{Pinned: vi == 0 || flags&1 != 0}
		if v.Pinned || flags&2 != 0 {
			v.Coord = coord()
		}
		p.Vertices = append(p.Vertices, v)
	}
	for nl := int(b.next()) % (2 * nv); nl > 0; nl-- {
		a, c := int(b.next())%nv, int(b.next())%nv
		if a == c {
			c = (a + 1) % nv
		}
		p.Links = append(p.Links, Link{A: a, B: c, Rate: math.Pow(10, -6+12*float64(b.next())/255)})
	}
	maxIter = 1 + int(b.next()%40)
	switch t := b.next(); t % 4 {
	case 0:
		tol = 0
	case 1:
		tol = 1e-300
	default:
		tol = math.Pow(10, -float64(t%16))
	}
	if e := b.next(); e%3 != 0 {
		eps = math.Pow(10, -float64(e%8))
	}
	return p, maxIter, tol, eps
}

// FuzzRelaxMatchesReference holds relax, which takes one square root per
// sweep, to the per-vertex Distance sweep it replaced: the same sweep
// count and bit-identical coordinates, for the spring pass and for the
// smoothed pass Weiszfeld runs after it.
func FuzzRelaxMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 6, 1, 0, 10, 0, 20, 0, 0, 1, 0, 0, 30, 0, 40, 0, 0, 0, 0, 9, 0, 1, 128, 1, 2, 255, 2, 3, 0, 3, 4, 60, 4, 0, 30, 1, 0})
	f.Add([]byte{3, 10, 1, 1, 2, 3, 4, 5, 6, 7, 8, 2, 9, 9, 9, 9, 9, 9, 9, 9, 0, 3, 255, 255, 0, 0, 128, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19, 0, 1, 255, 1, 2, 0, 2, 3, 7, 3, 4, 200, 4, 5, 13, 5, 6, 99, 6, 7, 1, 7, 8, 250, 8, 9, 3, 9, 10, 17, 39, 5, 7})
	f.Add([]byte{2, 4, 1, 250, 0, 6, 0, 1, 0, 9, 9, 3, 0, 0, 0, 0, 6, 0, 1, 255, 1, 2, 0, 2, 3, 255, 3, 0, 0, 0, 1, 3, 14, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, maxIter, tol, eps := relaxCase(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("relaxCase built an invalid problem: %v", err)
		}
		got, want := cloneProblem(p), cloneProblem(p)
		got.prepare()
		want.prepare()
		passes := []float64{0}
		if eps > 0 {
			passes = append(passes, eps)
		}
		for _, e := range passes {
			gs, ws := got.relax(maxIter, tol, e), referenceRelax(want, maxIter, tol, e)
			if gs != ws {
				t.Fatalf("eps %g: %d sweeps, reference %d", e, gs, ws)
			}
			for vi := range got.Vertices {
				for k, w := range want.Vertices[vi].Coord {
					if g := got.Vertices[vi].Coord[k]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("eps %g vertex %d dim %d: %v, reference %v", e, vi, k, g, w)
					}
				}
			}
		}
	})
}
