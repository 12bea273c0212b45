package optimizer

import (
	"cmp"
	"fmt"
	"math/rand"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// PlacementStrategy places a fixed logical plan onto physical nodes.
// Strategies isolate the placement question from plan choice, backing the
// X1 placement-comparison experiment.
type PlacementStrategy interface {
	PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error)
	Name() string
}

// RelaxationStrategy is the paper's placement: virtual placement via
// spring relaxation in the cost space, then physical mapping.
type RelaxationStrategy struct {
	Placer placement.VirtualPlacer
	Mapper placement.Mapper
}

// Name implements PlacementStrategy.
func (RelaxationStrategy) Name() string { return "relaxation" }

// PlaceCircuit implements PlacementStrategy.
func (s RelaxationStrategy) PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error) {
	opt := &Integrated{Env: env, Placer: s.Placer, Mapper: mapperOn(s.Mapper, env.Catalog(), env)}
	res, err := opt.placeOne(q, p)
	return res.Circuit, err
}

// RandomStrategy assigns every unpinned service to a uniformly random
// node — the "no placement intelligence" floor.
type RandomStrategy struct {
	Rng *rand.Rand
}

// Name implements PlacementStrategy.
func (RandomStrategy) Name() string { return "random" }

// PlaceCircuit implements PlacementStrategy.
func (s RandomStrategy) PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error) {
	rng := s.Rng
	if rng == nil {
		rng = env.Rand()
	}
	n := env.Topo.NumNodes()
	return placeFixed(env, q, p, func(*PlacedService) topology.NodeID {
		return topology.NodeID(rng.Intn(n))
	})
}

// placeFixed builds p's circuit for q and binds every unpinned service
// to the node choose returns, bypassing virtual placement (the baseline
// strategies).
func placeFixed(env *Env, q query.Query, p *query.PlanNode, choose func(*PlacedService) topology.NodeID) (*Circuit, error) {
	c, err := (&Builder{Env: env}).Skeleton(q, p, nil)
	if err != nil {
		return nil, err
	}
	for _, s := range c.Services {
		if !s.Pinned && s.Plan != nil {
			s.Node = choose(s)
		}
	}
	return c, nil
}

// ConsumerStrategy hosts every unpinned service on the consumer node —
// the classical "ship all data to the query site" database deployment.
type ConsumerStrategy struct{}

// Name implements PlacementStrategy.
func (ConsumerStrategy) Name() string { return "consumer" }

// PlaceCircuit implements PlacementStrategy.
func (ConsumerStrategy) PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error) {
	return placeFixed(env, q, p, func(*PlacedService) topology.NodeID { return q.Consumer })
}

// ProducerStrategy hosts each unpinned service at the producer of its
// leftmost source — "process at the data" without any cost awareness.
type ProducerStrategy struct{}

// Name implements PlacementStrategy.
func (ProducerStrategy) Name() string { return "producer" }

// PlaceCircuit implements PlacementStrategy.
func (s ProducerStrategy) PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error) {
	return placeFixed(env, q, p, func(svc *PlacedService) topology.NodeID {
		leaves := svc.Plan.Leaves()
		if len(leaves) == 0 {
			return q.Consumer
		}
		prod, ok := env.Stats.Producer(leaves[0])
		if !ok {
			return q.Consumer
		}
		return prod
	})
}

// ExhaustiveStrategy tries every assignment of unpinned services to the
// candidate node set and keeps the cheapest under the model — the optimal
// placement for the plan, exponential in the number of unpinned services.
// It is the ground truth for small circuits (experiment X1/X6) and
// demonstrates why enumeration cannot scale (§4).
type ExhaustiveStrategy struct {
	// Candidates restricts the searched nodes; nil means all topology
	// nodes (only sane for small topologies).
	Candidates []topology.NodeID
	// Model scores assignments (default TrueLatency: the strategy is an
	// oracle).
	Model LatencyModel
	// MaxAssignments caps |candidates|^unpinned to keep runs bounded
	// (default 5e6).
	MaxAssignments float64
}

// Name implements PlacementStrategy.
func (ExhaustiveStrategy) Name() string { return "exhaustive" }

// PlaceCircuit implements PlacementStrategy.
func (s ExhaustiveStrategy) PlaceCircuit(env *Env, q query.Query, p *query.PlanNode) (*Circuit, error) {
	c, err := (&Builder{Env: env}).Skeleton(q, p, nil)
	if err != nil {
		return nil, err
	}
	cands := s.Candidates
	if cands == nil {
		cands = env.NodeIDs()
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("optimizer: exhaustive strategy has no candidates")
	}
	model := cmp.Or(s.Model, LatencyModel(TrueLatency{Topo: env.Topo}))
	unpinned := c.UnpinnedServices()
	limit := s.MaxAssignments
	if limit <= 0 {
		limit = 5e6
	}
	total := 1.0
	for range unpinned {
		total *= float64(len(cands))
		if total > limit {
			return nil, fmt.Errorf("optimizer: exhaustive search space %g exceeds limit %g", total, limit)
		}
	}
	// With nothing unpinned the odometer turns once, over no service.
	assign := make([]int, len(unpinned))
	best := make([]topology.NodeID, len(unpinned))
	bestCost := -1.0
	for {
		for i, s := range unpinned {
			s.Node = cands[assign[i]]
		}
		cost := c.NetworkUsage(model)
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			for i, s := range unpinned {
				best[i] = s.Node
			}
		}
		// Odometer increment.
		i := 0
		for ; i < len(assign); i++ {
			assign[i]++
			if assign[i] < len(cands) {
				break
			}
			assign[i] = 0
		}
		if i == len(assign) {
			break
		}
	}
	for i, s := range unpinned {
		s.Node = best[i]
	}
	return c, nil
}
