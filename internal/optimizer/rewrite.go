package optimizer

import (
	"slices"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// RewriteStats reports one plan-rewriting sweep.
type RewriteStats struct {
	CircuitsEvaluated int
	VariantsCosted    int
	Rewrites          int
}

// RewriteStep performs the paper's limited plan re-writing (§3.3):
// for every deployed circuit it explores one-step join reorderings of
// the running plan, places each variant through the normal virtual
// placement + mapping pipeline, and swaps the circuit when a variant
// improves estimated network usage by more than the improvement
// threshold. Circuits that reuse services of other circuits are skipped:
// rewriting them would change streams other consumers depend on.
//
// The swap uses the deployment's cancel/deploy path, i.e. the paper's
// "new parallel circuit is deployed, cancelling the original less ideal
// circuit".
func (r *Reoptimizer) RewriteStep() (RewriteStats, error) {
	mapper, model, thresh := r.components()
	var stats RewriteStats
	env := r.Dep.Env
	b := &Builder{Env: env}

	// Snapshot IDs (the map mutates during swaps) in ascending order:
	// each swap changes the loads later rewrites map against.
	ids := make([]query.QueryID, 0, len(r.Dep.circuits))
	for id := range r.Dep.circuits {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		c, ok := r.Dep.Circuit(id)
		if !ok {
			continue
		}
		if hasReuse(c) {
			continue
		}
		stats.CircuitsEvaluated++
		oldUsage := c.NetworkUsage(model)

		var best *Circuit
		bestUsage := oldUsage
		for _, variant := range plan.Rotations(c.Plan) {
			if err := variant.ComputeRates(env.Stats); err != nil {
				return stats, err
			}
			cand, _, err := buildPlaceMap(b, c.Query, variant, placement.Relaxation{}, mapper)
			if err != nil {
				return stats, err
			}
			stats.VariantsCosted++
			if u := cand.NetworkUsage(model); u < bestUsage {
				best, bestUsage = cand, u
			}
		}
		if best == nil || bestUsage >= oldUsage*(1-thresh) {
			continue
		}
		if err := r.Dep.Cancel(id); err != nil {
			return stats, err
		}
		if err := r.Dep.Deploy(best); err != nil {
			return stats, err
		}
		stats.Rewrites++
	}
	return stats, nil
}

// hasReuse reports whether the circuit depends on shared instances.
func hasReuse(c *Circuit) bool {
	for _, s := range c.Services {
		if s.Reused {
			return true
		}
	}
	return false
}
