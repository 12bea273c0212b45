package optimizer

import (
	"slices"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
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

	// In ascending query order: each swap changes the loads later
	// rewrites map against.
	for _, c := range r.Dep.circuitsInOrder() {
		if slices.ContainsFunc(c.Services, func(s *PlacedService) bool { return s.Reused }) {
			continue
		}
		stats.CircuitsEvaluated++
		// A variant is kept only if it beats the deployed usage by more
		// than the threshold.
		limit := c.NetworkUsage(model) * (1 - thresh)
		variants := plan.Rotations(c.Plan)
		for _, variant := range variants {
			if err := variant.ComputeRates(env.Stats); err != nil {
				return stats, err
			}
		}
		_, best, err := b.cheapest(c.Query, variants, placement.Relaxation{}, mapper, model, &limit, nil)
		if err != nil {
			return stats, err
		}
		stats.VariantsCosted += len(variants)
		if best == nil {
			continue
		}
		if err := r.Dep.Cancel(c.Query.ID); err != nil {
			return stats, err
		}
		if err := r.Dep.Deploy(best.moveOut()); err != nil {
			return stats, err
		}
		stats.Rewrites++
	}
	return stats, nil
}
