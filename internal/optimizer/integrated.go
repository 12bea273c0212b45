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

	// st holds the defaults for the components left nil above, resolved
	// once, and the optimizer's scratch: its Builder and sub-plan table.
	st *integratedState
}

type integratedState struct {
	enum   *plan.Enumerator
	placer placement.VirtualPlacer
	mapper placement.Mapper
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

// state returns the optimizer's defaults and scratch, resolving them on
// first use.
func (o *Integrated) state() *integratedState {
	if o.st == nil {
		o.st = &integratedState{
			enum:   plan.NewEnumerator(o.Env.Stats),
			placer: placement.Relaxation{},
			mapper: mapperOn(nil, o.Env.Catalog(), o.Env),
			model:  CoordLatency{Env: o.Env},
			b:      Builder{Env: o.Env},
		}
	}
	return o.st
}

func (o *Integrated) components() (*plan.Enumerator, placement.VirtualPlacer, placement.Mapper, LatencyModel) {
	def := o.state()
	return cmp.Or(o.Enum, def.enum), cmp.Or(o.Placer, def.placer), cmp.Or(o.Mapper, def.mapper), cmp.Or(o.Model, def.model)
}

// builder returns the optimizer's reusable Builder.
func (o *Integrated) builder() *Builder { return &o.state().b }

// Optimize performs full circuit optimization for the query and returns
// the best circuit without deploying it.
func (o *Integrated) Optimize(q query.Query) (*Result, error) {
	return o.optimizeInto(nil, q)
}

// optimizeInto is Optimize writing its Result to dst (nil: carved from
// the Builder's blocks).
func (o *Integrated) optimizeInto(dst *Result, q query.Query) (*Result, error) {
	enum, placer, mapper, model := o.components()
	st := o.state()
	plans, err := enum.EnumerateInto(&st.table, q)
	if err != nil {
		return nil, err
	}
	res := Result{PlansConsidered: len(plans)}
	// Candidates are built on two scratch circuits, the one under
	// evaluation and the best so far, which trade places on improvement.
	b := &st.b
	b.resolveProducers(q)
	cur, best := &b.cand[0], &b.cand[1]
	for i, p := range plans {
		stats, err := b.buildPlaceMapInto(cur, q, p, placer, mapper)
		if err != nil {
			return nil, err
		}
		res.CircuitsConsidered++
		if usage := cur.NetworkUsage(model); i == 0 || usage < res.EstimatedUsage {
			cur, best = best, cur
			res.EstimatedUsage = usage
			res.MapStats = stats
		}
	}
	return b.owned(dst, res, best, true), nil
}

// buildPlaceMap runs the skeleton → virtual placement → physical mapping
// pipeline for one plan and returns the circuit, signed and the caller's.
func buildPlaceMap(b *Builder, q query.Query, p *query.PlanNode, placer placement.VirtualPlacer, mapper placement.Mapper) (*Circuit, placement.MapStats, error) {
	c := new(Circuit)
	stats, err := b.buildPlaceMapInto(c, q, p, placer, mapper)
	if err != nil {
		return nil, placement.MapStats{}, err
	}
	c.sign(nil)
	return c, stats, nil
}

// buildPlaceMapInto is the pipeline into c's own storage, unsigned (see
// skeletonInto).
func (b *Builder) buildPlaceMapInto(c *Circuit, q query.Query, p *query.PlanNode, placer placement.VirtualPlacer, mapper placement.Mapper) (placement.MapStats, error) {
	if err := b.skeletonInto(c, q, p, nil); err != nil {
		return placement.MapStats{}, err
	}
	if err := b.PlaceVirtual(c, placer); err != nil {
		return placement.MapStats{}, err
	}
	return b.MapPhysical(c, mapper)
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
	enum, placer, mapper, model := inner.components()
	best, err := enum.Best(q)
	if err != nil {
		return nil, err
	}
	circuit, stats, err := buildPlaceMap(inner.builder(), q, best, placer, mapper)
	if err != nil {
		return nil, err
	}
	return &Result{
		Circuit:            circuit,
		PlansConsidered:    1,
		CircuitsConsidered: 1,
		EstimatedUsage:     circuit.NetworkUsage(model),
		MapStats:           stats,
	}, nil
}
