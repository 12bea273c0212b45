package exp

import "github.com/hourglass/sbon/internal/optimizer"

// X9Params configures the plan-rewriting study.
type X9Params struct {
	Scale Scale
	Seeds int
}

// DefaultX9Params returns the configuration at scale s.
func DefaultX9Params(s Scale) X9Params {
	p := X9Params{Scale: s, Seeds: 10}
	if s == Small {
		p.Seeds = 4
	}
	return p
}

// X9 measures the paper's §3.3 "limited plan re-writing": circuits are
// first deployed by the two-step optimizer (which walks into the Figure
// 1 trap), then the re-optimizer's join-reordering sweeps run to a
// fixpoint. Reported: usage before rewriting, after, and the integrated
// optimizer's result as the reference — how much of the integration
// benefit can be recovered *online* by rewriting an already-running
// circuit.
func X9(p X9Params) (*Table, error) {
	t := NewTable("X9 — online plan rewriting of running circuits (§3.3)",
		"seed", "usage two-step", "after rewriting", "integrated (reference)",
		"rewrites", "recovered %")

	var recovered []float64
	for seed := int64(1); seed <= int64(p.Seeds); seed++ {
		fs, err := newFig1Seed(p.Scale, seed)
		if err != nil {
			return nil, err
		}
		truth := fs.truth

		dep := optimizer.NewDeployment(fs.env, nil)
		if err := dep.Deploy(fs.two.Circuit); err != nil {
			return nil, err
		}
		before := dep.TotalUsage(truth)

		ro := optimizer.NewReoptimizer(dep)
		ro.Mapper = fs.mapper
		ro.Model = truth
		rewrites := 0
		for sweep := 0; sweep < 10; sweep++ {
			st, err := ro.RewriteStep()
			if err != nil {
				return nil, err
			}
			rewrites += st.Rewrites
			if st.Rewrites == 0 {
				break
			}
		}
		after := dep.TotalUsage(truth)
		ui := fs.integ.Circuit.NetworkUsage(truth)

		rec := 100.0
		if before-ui > 1e-9 {
			rec = 100 * (before - after) / (before - ui)
		}
		recovered = append(recovered, rec)
		t.AddRow(seed, before, after, ui, rewrites, rec)
	}
	t.AddNote("mean integration benefit recovered online = %.1f%%", meanOf(recovered))
	t.AddNote("expected shape: rewriting recovers most of the two-step/integrated gap without re-planning from scratch — the §3.3 claim that long-running queries amortize re-optimization")
	return t, nil
}
