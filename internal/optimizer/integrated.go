package optimizer

import (
	"cmp"

	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
)

// Result is the outcome of optimizing one query.
type Result struct {
	// Circuit is the placed query. From a batch with a plan cache, its
	// Plan, Services and Links may be shared with the cache and every
	// other result of its key, so they are read-only: Deployment.Deploy
	// copies the services and links it writes, and a plan is copied with
	// Clone or ShallowClone before it is changed. The header itself, and
	// its Query, are the result's own. The results of one optimizer are
	// carved from shared blocks, each circuit in a disjoint,
	// capacity-clipped region of them: writing or appending to one never
	// reaches another, and a block stays live while any of its circuits
	// does.
	Circuit *Circuit
	// PlansConsidered is the number of candidate logical plans examined.
	PlansConsidered int
	// CircuitsConsidered is the number of fully placed candidate circuits
	// costed (integrated: one per plan; two-step: one).
	CircuitsConsidered int
	// EstimatedUsage is the selection-time network usage under the
	// optimizer's latency model.
	EstimatedUsage float64
	// MapStats aggregates physical-mapping effort for the chosen circuit.
	MapStats placement.MapStats
	// ReusedServices counts services satisfied by existing instances
	// (multi-query optimization only).
	ReusedServices int
	// InstancesExamined counts registry/DHT entries inspected during
	// reuse search (the §3.4 pruning work metric).
	InstancesExamined int
	// FromCache marks results answered from a PlanCache hit (batch
	// optimization): plan enumeration and placement were both skipped,
	// and MapStats are those of the placement the hit reuses.
	FromCache bool
}

// Integrated is the paper's optimizer (§3.3): every candidate plan is
// virtually placed and physically mapped, yielding one candidate circuit
// per plan; the cheapest circuit under the latency model wins.
//
// An Integrated serves one goroutine at a time (batch workers each own
// one): it enumerates into its own sub-plan table and evaluates the
// candidates on its Builder's scratch circuits. What Optimize returns is
// a copy that shares nothing with that scratch: the Result, its circuit
// and the circuit's plan are carved from the Builder's blocks, which all
// of this optimizer's results share, each in a disjoint,
// capacity-clipped region.
type Integrated struct {
	Env *Env
	// Enum generates candidate plans. Defaults to a fresh enumerator over
	// Env.Stats when nil.
	Enum *plan.Enumerator
	// Placer performs virtual placement (default Relaxation).
	Placer placement.VirtualPlacer
	// Mapper performs physical mapping (default: DHT mapper when the env
	// has a catalog, else the oracle).
	Mapper placement.Mapper
	// Model is the latency model used to select among candidates
	// (default CoordLatency — what a decentralized node can know).
	Model LatencyModel

	// st holds the optimizer's scratch, its Builder and sub-plan table,
	// and the defaults for the components left nil above.
	st *integratedState
}

type integratedState struct {
	enum   plan.Enumerator
	placer placement.VirtualPlacer
	mapper placement.Mapper // made when first needed
	model  LatencyModel
	b      Builder
	table  plan.Table
	key    planKey // the batch worker's plan-cache key scratch
}

// NewIntegrated returns an integrated optimizer with default components.
func NewIntegrated(env *Env) *Integrated {
	return &Integrated{Env: env}
}

// mapperOn is the one place a mapper is chosen. A nil m becomes the
// deployment's own mechanism: the DHT mapper over cat when there is a
// catalog, else the oracle. A SourceMapper is re-pointed at src, the
// view the entry point reads (the env, a sweep's shadow, a batch's
// snapshot); any other mapper is used as given.
func mapperOn(m placement.Mapper, cat *dht.Catalog, src placement.NodeSource) placement.Mapper {
	if m == nil {
		if cat != nil {
			return placement.DHTMapper{Catalog: cat}
		}
		return placement.OracleMapper{Source: src}
	}
	if sm, ok := m.(placement.SourceMapper); ok {
		return sm.On(src)
	}
	return m
}

// state returns the optimizer's defaults and scratch, making them on
// first use.
func (o *Integrated) state() *integratedState {
	if o.st == nil {
		o.st = &integratedState{enum: *plan.NewEnumerator(o.Env.Stats), placer: placement.Relaxation{}, model: CoordLatency{Env: o.Env}, b: Builder{Env: o.Env}}
	}
	return o.st
}

// components returns the optimizer's components, the defaults for those
// left nil. The default mapper is made only when one is left nil.
func (o *Integrated) components() (*plan.Enumerator, placement.VirtualPlacer, placement.Mapper, LatencyModel) {
	def := o.state()
	if o.Mapper == nil && def.mapper == nil {
		def.mapper = mapperOn(nil, o.Env.Catalog(), o.Env)
	}
	return cmp.Or(o.Enum, &def.enum), cmp.Or(o.Placer, def.placer), cmp.Or(o.Mapper, def.mapper), cmp.Or(o.Model, def.model)
}

// builder returns the optimizer's reusable Builder.
func (o *Integrated) builder() *Builder { return &o.state().b }

// Optimize performs full circuit optimization for the query and returns
// the best circuit without deploying it.
func (o *Integrated) Optimize(q query.Query) (*Result, error) {
	return o.optimizeInto(nil, q, nil, nil)
}

// optimizeInto is Optimize over plans (nil: q's enumeration) with an
// optional variant, writing its Result, whose plan is its own, to dst
// (nil: carved from the Builder's blocks).
func (o *Integrated) optimizeInto(dst *Result, q query.Query, plans []*query.PlanNode, variant variantFn) (*Result, error) {
	enum, placer, mapper, model := o.components()
	st := o.state()
	if plans == nil {
		var err error
		if plans, err = enum.EnumerateInto(&st.table, q); err != nil {
			return nil, err
		}
	}
	res, best, err := st.b.cheapest(q, plans, placer, mapper, model, nil, variant)
	if err != nil {
		return nil, err
	}
	return st.b.owned(dst, res, best), nil
}

// placeOne places the one plan p through the candidate loop and moves
// the circuit off the scratch, for an Integrated used once.
func (o *Integrated) placeOne(q query.Query, p *query.PlanNode) (Result, error) {
	_, placer, mapper, model := o.components()
	res, c, err := o.builder().cheapest(q, []*query.PlanNode{p}, placer, mapper, model, nil, nil)
	if err == nil {
		res.Circuit = c.moveOut()
	}
	return res, err
}

// variantFn builds into c the skeleton of a second candidate for the
// plan of fresh, the plan's own candidate, which is placed and mapped,
// and reports whether it built one.
type variantFn func(c, fresh *Circuit) (bool, error)

// cheapest is the candidate loop every optimizer runs. Each plan is
// placed virtually and mapped physically, and, with a variant, so is
// the variant built from it right after; the cheapest candidate under
// the model wins, the first of equals. Without a bar the first
// candidate is taken whatever it costs; with one, a candidate must cost
// less than *bar, and when none does cheapest returns a nil circuit, as
// it does for no plans (an enumeration has at least one). The winner is
// returned on the Builder's scratch, with the Result that goes with it:
// the caller carves it (owned) or moves it off the scratch (moveOut)
// before the Builder places anything else.
func (b *Builder) cheapest(q query.Query, plans []*query.PlanNode, placer placement.VirtualPlacer, mapper placement.Mapper, model LatencyModel, bar *float64, variant variantFn) (Result, *Circuit, error) {
	b.resolveProducers(q)
	res, won := Result{PlansConsidered: len(plans)}, false
	if bar != nil {
		res.EstimatedUsage = *bar
	}
	// Candidates are built on the Builder's scratch circuits: a plan's
	// own and its variant in cand, and the best so far, which trades
	// places with a candidate that beats it.
	cand, best := [2]*Circuit{&b.cand[0], &b.cand[1]}, &b.cand[2]
	for _, p := range plans {
		if err := b.skeletonInto(cand[0], q, p, nil); err != nil {
			return res, nil, err
		}
		for i, n := 0, 1; i < n; i++ {
			c := cand[i]
			if err := b.PlaceVirtual(c, placer); err != nil {
				return res, nil, err
			}
			stats, err := b.MapPhysical(c, mapper)
			if err != nil {
				return res, nil, err
			}
			res.CircuitsConsidered++
			if usage := c.NetworkUsage(model); !won && bar == nil || usage < res.EstimatedUsage {
				cand[i], best, won = best, c, true
				res.EstimatedUsage, res.MapStats = usage, stats
			}
			if i == 0 && variant != nil {
				// c still holds the plan's own candidate, wherever it
				// now sits, and the variant is built beside it.
				ok, err := variant(cand[1], c)
				if err != nil {
					return res, nil, err
				}
				if ok {
					n = 2
				}
			}
		}
	}
	if !won {
		return res, nil, nil
	}
	return res, best, nil
}

// TwoStep is the classical baseline (§2.3): plan generation ignores the
// network entirely (cheapest plan by intermediate data rate), and only
// then is that single plan placed — using exactly the same placement
// machinery as the integrated optimizer, so the comparison isolates the
// integration itself.
type TwoStep struct {
	Env    *Env
	Enum   *plan.Enumerator
	Placer placement.VirtualPlacer
	Mapper placement.Mapper
	Model  LatencyModel
}

// NewTwoStep returns a two-step optimizer with default components.
func NewTwoStep(env *Env) *TwoStep {
	return &TwoStep{Env: env}
}

// Optimize picks the statistics-optimal plan, then places it.
func (o *TwoStep) Optimize(q query.Query) (*Result, error) {
	inner := &Integrated{Env: o.Env, Enum: o.Enum, Placer: o.Placer, Mapper: o.Mapper, Model: o.Model}
	enum, _, _, _ := inner.components()
	best, err := enum.Best(q)
	if err != nil {
		return nil, err
	}
	res, err := inner.placeOne(q, best)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// keep returns *o with c's components, so that an optimizer built on
// Integrated keeps one scratch across calls: *o is made on first use,
// and again when c's env is another.
func keep(o **Integrated, c Integrated) *Integrated {
	if *o == nil || (*o).Env != c.Env {
		*o = new(Integrated)
	}
	c.st = (*o).st
	**o = c
	return *o
}
