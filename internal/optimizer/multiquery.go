package optimizer

import (
	"fmt"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// MultiQuery optimizes queries against the population of already-running
// circuits (§3.4): candidate plans may satisfy subtrees by reusing
// existing service instances found within cost-space radius Radius of the
// subtree's virtually placed coordinate.
type MultiQuery struct {
	Env      *Env
	Registry *Registry
	// Radius is the pruning radius r in cost-space units (≈ms). Zero
	// disables reuse entirely; +Inf searches everything (full MQO).
	Radius float64

	Enum   *plan.Enumerator
	Placer placement.VirtualPlacer
	Mapper placement.Mapper
	Model  LatencyModel
}

// NewMultiQuery returns a multi-query optimizer with default components.
func NewMultiQuery(env *Env, reg *Registry, radius float64) *MultiQuery {
	return &MultiQuery{Env: env, Registry: reg, Radius: radius}
}

// Optimize returns the cheapest circuit for q, considering both fresh
// placement and reuse of registered instances. The returned circuit is
// not yet deployed (see Deployment).
func (o *MultiQuery) Optimize(q query.Query) (*Result, error) {
	if o.Registry == nil {
		return nil, fmt.Errorf("optimizer: MultiQuery has no registry")
	}
	inner := &Integrated{Env: o.Env, Enum: o.Enum, Placer: o.Placer, Mapper: o.Mapper, Model: o.Model}
	enum, placer, mapper, model := inner.components()
	plans, err := enum.Enumerate(q)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("optimizer: no plans for query %d", q.ID)
	}
	b := inner.builder()
	res := Result{PlansConsidered: len(plans)}
	for _, p := range plans {
		// Candidate 1: fresh placement (no reuse).
		fresh, stats, err := buildPlaceMap(b, q, p, placer, mapper)
		if err != nil {
			return nil, err
		}
		res.CircuitsConsidered++
		o.consider(&res, fresh, stats, 0, 0, model)

		// Candidate 2: reuse within the radius. Requires the virtual
		// coordinates just computed for the fresh candidate.
		if o.Radius > 0 && o.Registry.Len() > 0 {
			reused, rstats, nReused, examined, err := o.buildWithReuse(b, q, p, fresh, placer, mapper)
			if err != nil {
				return nil, err
			}
			// The region scan is optimizer work whether or not a
			// matching service was found in it.
			res.InstancesExamined += examined
			if reused != nil {
				res.CircuitsConsidered++
				o.consider(&res, reused, rstats, nReused, examined, model)
			}
		}
	}
	// The candidates were planned over the enumeration's shared
	// sub-plans; the winner gets a plan of its own.
	return b.owned(nil, res, res.Circuit, true), nil
}

// consider keeps the candidate if it beats the incumbent on estimated
// (marginal) usage.
func (o *MultiQuery) consider(res *Result, c *Circuit, stats placement.MapStats, reusedCount, examined int, model LatencyModel) {
	usage := c.NetworkUsage(model)
	if res.Circuit == nil || usage < res.EstimatedUsage {
		res.Circuit = c
		res.EstimatedUsage = usage
		res.MapStats = stats
		res.ReusedServices = reusedCount
	}
}

// buildWithReuse constructs a reuse candidate: plan subtrees whose
// signature matches a registered instance within Radius of the subtree's
// virtual coordinate are replaced by that instance (top-down, so the
// largest shareable subtree wins). Returns nil circuit if nothing was
// reusable.
func (o *MultiQuery) buildWithReuse(b *Builder, q query.Query, p *query.PlanNode, fresh *Circuit, placer placement.VirtualPlacer, mapper placement.Mapper) (*Circuit, placement.MapStats, int, int, error) {
	// Virtual coordinates per plan node from the fresh candidate.
	virtual := make(map[*query.PlanNode]costspace.Point)
	for _, s := range fresh.Services {
		if s.Plan != nil && !s.Pinned && len(s.Virtual) > 0 {
			virtual[s.Plan] = o.Env.Space().IdealPoint(s.Virtual)
		}
	}
	space := o.Env.Space()
	examined := 0
	reusedCount := 0
	// blocked tracks descendants of reused nodes: Skeleton never calls
	// reuse() for them because it stops descending, but keep the map for
	// clarity of intent.
	reuse := func(n *query.PlanNode) *ServiceInstance {
		target, ok := virtual[n]
		if !ok {
			return nil
		}
		matches, ex := o.Registry.FindWithinRadius(space, target, o.Radius, n.Signature())
		examined += ex
		if len(matches) == 0 {
			return nil
		}
		reusedCount++
		return matches[0]
	}
	c, err := b.Skeleton(q, p, reuse)
	if err != nil {
		return nil, placement.MapStats{}, 0, 0, err
	}
	if reusedCount == 0 {
		return nil, placement.MapStats{}, 0, examined, nil
	}
	if err := b.PlaceVirtual(c, placer); err != nil {
		return nil, placement.MapStats{}, 0, 0, err
	}
	stats, err := b.MapPhysical(c, mapper)
	if err != nil {
		return nil, placement.MapStats{}, 0, 0, err
	}
	return c, stats, reusedCount, examined, nil
}
