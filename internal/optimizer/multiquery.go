package optimizer

import (
	"fmt"
	"slices"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// MultiQuery optimizes queries against the population of already-running
// circuits (§3.4): candidate plans may satisfy subtrees by reusing
// existing service instances found within cost-space radius Radius of the
// subtree's virtually placed coordinate.
//
// A MultiQuery serves one goroutine at a time: it keeps one Integrated
// across calls, whose Builder its results are carved from.
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

	inner *Integrated
}

// NewMultiQuery returns a multi-query optimizer with default components.
func NewMultiQuery(env *Env, reg *Registry, radius float64) *MultiQuery {
	return &MultiQuery{Env: env, Registry: reg, Radius: radius}
}

// Optimize returns the cheapest circuit for q, considering both fresh
// placement and reuse of registered instances: every plan is costed
// fresh and then, if any of its subtrees can reuse an instance, as the
// reuse variant. The returned circuit is not yet deployed (see
// Deployment).
func (o *MultiQuery) Optimize(q query.Query) (*Result, error) {
	if o.Registry == nil {
		return nil, fmt.Errorf("optimizer: MultiQuery has no registry")
	}
	inner := keep(&o.inner, Integrated{Env: o.Env, Enum: o.Enum, Placer: o.Placer, Mapper: o.Mapper, Model: o.Model})
	var variant variantFn
	examined := 0
	if o.Radius > 0 && o.Registry.Len() > 0 {
		variant = func(c, fresh *Circuit) (bool, error) { return o.reuseInto(inner.builder(), c, fresh, &examined) }
	}
	res, err := inner.optimizeInto(nil, q, nil, variant)
	if err != nil {
		return nil, err
	}
	// The region scans are optimizer work whether or not a matching
	// service was found in them.
	res.InstancesExamined = examined
	for _, s := range res.Circuit.Services {
		if s.Reused {
			res.ReusedServices++
		}
	}
	return res, nil
}

// reuseInto builds into c the reuse variant of fresh's plan: subtrees
// whose signature matches a registered instance within Radius of the
// subtree's virtual coordinate in fresh are replaced by that instance
// (top-down, so the largest shareable subtree wins). It reports whether
// any subtree was, and adds the registry entries it inspected to
// *examined.
func (o *MultiQuery) reuseInto(b *Builder, c, fresh *Circuit, examined *int) (bool, error) {
	space := o.Env.Space()
	reused := false
	reuse := func(n *query.PlanNode) *ServiceInstance {
		i := slices.IndexFunc(fresh.Services, func(s *PlacedService) bool { return s.Plan == n && !s.Pinned && len(s.Virtual) > 0 })
		if i < 0 {
			return nil
		}
		matches, ex := o.Registry.FindWithinRadius(space, space.IdealPoint(fresh.Services[i].Virtual), o.Radius, n.Signature())
		*examined += ex
		if len(matches) == 0 {
			return nil
		}
		reused = true
		return matches[0]
	}
	err := b.skeletonInto(c, fresh.Query, fresh.Plan, reuse)
	return reused && err == nil, err
}
