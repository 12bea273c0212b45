package placement

// GradientDescent minimizes the quadratic spring energy with plain
// gradient steps — slower than Relaxation but demonstrates the paper's
// remark that "other virtual placement algorithms could be based on ...
// a gradient descent within the cost space" [18].
type GradientDescent struct {
	MaxIter   int
	Step      float64 // relative step size (default 0.05)
	Tolerance float64
}

// Name implements VirtualPlacer.
func (GradientDescent) Name() string { return "gradient" }

// PlaceVirtual implements VirtualPlacer.
func (g GradientDescent) PlaceVirtual(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	maxIter := g.MaxIter
	if maxIter <= 0 {
		maxIter = 2000
	}
	step := g.Step
	if step <= 0 {
		step = 0.05
	}
	tol := g.Tolerance
	if tol <= 0 {
		tol = 1e-4
	}
	p.prepare()
	grad := p.acc
	for iter := 0; iter < maxIter; iter++ {
		maxMove := 0.0
		for vi := range p.Vertices {
			v, adj := &p.Vertices[vi], p.neighbors(vi)
			if v.Pinned || len(adj) == 0 {
				continue
			}
			// ∇E_v = Σ 2·rate·(x_v - x_u); scale step by Σ rate so the
			// effective step is dimensionless.
			clear(grad)
			var totalRate float64
			for _, e := range adj {
				o := p.Vertices[e.other].Coord
				for k := range grad {
					grad[k] += 2 * e.rate * (v.Coord[k] - o[k])
				}
				totalRate += e.rate
			}
			f := -step / (2 * totalRate)
			for k := range grad {
				grad[k] *= f // the step taken
				v.Coord[k] += grad[k]
			}
			if m := grad.Norm(); m > maxMove {
				maxMove = m
			}
		}
		if maxMove < tol {
			return nil
		}
	}
	return nil
}
