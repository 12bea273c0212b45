package optimizer

import (
	"fmt"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// Builder turns logical plans into circuits: it constructs the service
// skeleton, runs virtual placement over the cost space's vector subspace,
// and maps unpinned services to physical nodes.
//
// Placement conventions:
//   - Source leaves are pinned at their producers ("one cannot move
//     mountains").
//   - A filter directly above a source is pushed down and pinned on the
//     producer node (standard pushdown; the paper's unpinned services are
//     the joins/aggregates).
//   - Everything else is unpinned and placed in the cost space.
type Builder struct {
	Env *Env

	// prob is the placement problem every circuit is converted into. Its
	// vertex and link slices, and the solver scratch a placement.Problem
	// carries, are recycled from one candidate plan to the next, so a
	// warm Builder places a circuit without allocating. cand are the
	// scratch circuits every optimizer evaluates its candidates on
	// (Builder.cheapest). All of it makes a Builder single-goroutine:
	// concurrent optimizations each own one (one per batch worker).
	prob placement.Problem
	cand [3]Circuit
	// prods[:nprods] are the producers of one query's first streams,
	// looked up once per query (resolveProducers), not once per leaf of
	// every candidate plan, and stored in place; a catalog never
	// re-homes a stream.
	prods  [8]streamProducer
	nprods int

	// The blocks the results of owned are carved from, one per type:
	// each result takes disjoint, capacity-clipped pieces (see take).
	// bytes holds the signatures and plan-cache keys the results carry,
	// carved by query.Carve, append-only.
	bytes    []byte
	results  []Result
	circuits []Circuit
	slab     []PlacedService
	services []*PlacedService
	links    []Link
	coords   []float64
	nodes    []query.PlanNode
}

// blockLen is the length of a block after a Builder's first result,
// which takes exact pieces, so a one-shot Builder allocates only what it
// returns. A block stays live while any circuit carved from it does.
const blockLen = 256

// take carves the next n elements of *buf, allocating a new block when
// it has no room. The piece's capacity is clipped to n, so appending to
// it moves it out of the block instead of writing over the next piece.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf)-len(*buf) < n {
		size := n
		if cap(*buf) > 0 {
			size = max(n, blockLen)
		}
		*buf = make([]T, 0, size)
	}
	l := len(*buf)
	*buf = (*buf)[:l+n]
	return (*buf)[l : l+n : l+n]
}

type streamProducer struct {
	stream query.StreamID
	node   topology.NodeID
}

// resolveProducers looks up the producers of q's streams for the
// skeletons that follow. Unknown streams are left for build to report.
func (b *Builder) resolveProducers(q query.Query) {
	b.nprods = 0
	for _, s := range q.Streams[:min(len(q.Streams), len(b.prods))] {
		if node, ok := b.Env.Stats.Producer(s); ok {
			b.prods[b.nprods] = streamProducer{s, node}
			b.nprods++
		}
	}
}

// producer returns the node that publishes stream s: from prods, or
// from the catalog for a stream no resolved query has.
func (b *Builder) producer(s query.StreamID) (topology.NodeID, bool) {
	for _, p := range b.prods[:b.nprods] {
		if p.stream == s {
			return p.node, true
		}
	}
	return b.Env.Stats.Producer(s)
}

// reuseFn lets the multi-query optimizer substitute an existing service
// instance for a plan subtree. A nil function never reuses.
type reuseFn func(n *query.PlanNode) *ServiceInstance

// Skeleton builds the circuit's services and links from a rated plan.
// Reused subtrees become single pinned services with shared upstream
// cost. The returned circuit has no virtual coordinates or physical
// nodes for unpinned services yet. It is the caller's: nothing in it is
// Builder scratch, and its plan and services are signed.
func (b *Builder) Skeleton(q query.Query, root *query.PlanNode, reuse reuseFn) (*Circuit, error) {
	c := new(Circuit)
	if err := b.skeletonInto(c, q, root, reuse); err != nil {
		return nil, err
	}
	c.sign(nil)
	return c, nil
}

// skeletonInto is Skeleton into c's own storage: whatever c held is
// overwritten, and nothing is allocated when c has held a circuit this
// large before. It signs nothing (see Circuit.sign).
func (b *Builder) skeletonInto(c *Circuit, q query.Query, root *query.PlanNode, reuse reuseFn) error {
	if root == nil {
		return fmt.Errorf("optimizer: nil plan")
	}
	// One service per plan node at most, plus the consumer sink: sized up
	// front, because Services points into the slab.
	if n := planSize(root) + 1; cap(c.slab) < n {
		c.slab, c.Services, c.Links = make([]PlacedService, 0, n), make([]*PlacedService, 0, n), make([]Link, 0, n)
	}
	c.Query, c.Plan = q, root
	c.slab, c.Services, c.Links = c.slab[:0], c.Services[:0], c.Links[:0]
	rootIdx, err := b.build(c, root, reuse)
	if err != nil {
		return err
	}
	c.rootIdx = rootIdx
	c.consumerIdx = c.add(PlacedService{Node: q.Consumer, Pinned: true})
	c.Links = append(c.Links, Link{From: rootIdx, To: c.consumerIdx, Rate: root.OutRate})
	return nil
}

func planSize(n *query.PlanNode) int {
	if n == nil {
		return 0
	}
	return 1 + planSize(n.Left) + planSize(n.Right)
}

// build appends the services and links of the sub-plan under n, children
// first, and returns the index of n's own service.
func (b *Builder) build(c *Circuit, n *query.PlanNode, reuse reuseFn) (int, error) {
	svc := PlacedService{Plan: n, OutRate: n.OutRate}
	// Multi-query reuse: an existing instance serves this whole subtree.
	if reuse != nil && n.Kind != query.KindSource {
		if inst := reuse(n); inst != nil {
			svc.Node, svc.Pinned, svc.Reused, svc.ReusedFrom = inst.Node, true, true, inst
			return c.add(svc), nil
		}
	}
	switch n.Kind {
	case query.KindSource:
		prod, ok := b.producer(n.Stream)
		if !ok {
			return 0, fmt.Errorf("optimizer: stream %d has no producer", n.Stream)
		}
		svc.Node, svc.Pinned = prod, true
		return c.add(svc), nil
	case query.KindFilter, query.KindAggregate:
		childIdx, err := b.build(c, n.Left, reuse)
		if err != nil {
			return 0, err
		}
		if child := c.Services[childIdx]; n.Kind == query.KindFilter && child.Plan.Kind == query.KindSource && !child.Reused {
			svc.Node, svc.Pinned = child.Node, true // pushdown to producer
		}
		svc.InRate = n.Left.OutRate
		idx := c.add(svc)
		c.Links = append(c.Links, Link{From: childIdx, To: idx, Rate: n.Left.OutRate})
		return idx, nil
	case query.KindJoin, query.KindUnion:
		li, err := b.build(c, n.Left, reuse)
		if err != nil {
			return 0, err
		}
		ri, err := b.build(c, n.Right, reuse)
		if err != nil {
			return 0, err
		}
		svc.InRate = n.Left.OutRate + n.Right.OutRate
		idx := c.add(svc)
		c.Links = append(c.Links,
			Link{From: li, To: idx, Rate: n.Left.OutRate},
			Link{From: ri, To: idx, Rate: n.Right.OutRate},
		)
		return idx, nil
	default:
		return 0, fmt.Errorf("optimizer: unsupported plan node kind %v", n.Kind)
	}
}

// problemFor converts the circuit into a placement problem over the
// vector subspace, vertex i being service i. The problem is scratch
// owned by the Builder, valid until the next problemFor call. Pinned
// vertices borrow their host's coordinate from the environment (placers
// leave pinned coordinates untouched); unpinned vertices always start
// with a nil coordinate so the placer's seeding is independent of
// whatever the scratch held before.
//
// nodeOf resolves a pinned service's host; nil means live bindings. A
// shadow sweep passes its simulated resolver so re-bound shared
// instances anchor later placements at their simulated positions.
func (b *Builder) problemFor(c *Circuit, nodeOf func(*PlacedService) topology.NodeID) *placement.Problem {
	p := &b.prob
	p.Vertices = p.Vertices[:0]
	p.Links = p.Links[:0]
	for _, svc := range c.Services {
		v := placement.Vertex{Pinned: svc.Pinned}
		if svc.Pinned {
			node := svc.Node
			if nodeOf != nil {
				node = nodeOf(svc)
			}
			v.Coord = b.Env.VecCoord(node)
		}
		p.Vertices = append(p.Vertices, v)
	}
	for _, l := range c.Links {
		if !l.Shared {
			p.Links = append(p.Links, placement.Link{A: l.From, B: l.To, Rate: l.Rate})
		}
	}
	return p
}

// PlaceVirtual runs the virtual placer over the circuit and records the
// resulting coordinates on its unpinned services.
func (b *Builder) PlaceVirtual(c *Circuit, placer placement.VirtualPlacer) error {
	return b.placeVirtualAs(c, placer, nil)
}

// placeVirtualAs is PlaceVirtual with pinned hosts resolved through
// nodeOf (nil = live bindings) — the shadow-sweep entry point. The
// coordinates are copied out of the Builder's problem into the
// circuit's own arena, packed in service order.
func (b *Builder) placeVirtualAs(c *Circuit, placer placement.VirtualPlacer, nodeOf func(*PlacedService) topology.NodeID) error {
	prob := b.problemFor(c, nodeOf)
	if err := placer.PlaceVirtual(prob); err != nil {
		return err
	}
	// Room for every service, so the appends below never move the arena
	// out from under the Virtual slices already handed out.
	d := len(prob.Vertices[0].Coord)
	if need := d * len(c.Services); cap(c.coords) < need {
		c.coords = make([]float64, 0, need)
	}
	c.coords = c.coords[:0]
	for i, s := range c.Services {
		if !s.Pinned {
			c.coords = append(c.coords, prob.Vertices[i].Coord...)
			s.Virtual = c.coords[len(c.coords)-d : len(c.coords) : len(c.coords)]
		}
	}
	return nil
}

// MapPhysical binds every unpinned service to a node using the mapper,
// starting DHT lookups from the query's consumer (the node performing
// the optimization). It returns aggregate mapping statistics.
func (b *Builder) MapPhysical(c *Circuit, mapper placement.Mapper) (placement.MapStats, error) {
	var agg placement.MapStats
	for _, s := range c.Services {
		if s.Pinned || s.Plan == nil {
			continue
		}
		if len(s.Virtual) == 0 {
			return agg, fmt.Errorf("optimizer: service %s has no virtual coordinate", s.Plan.Signature())
		}
		node, st, err := mapper.MapCoord(c.Query.Consumer, s.Virtual, nil)
		if err != nil {
			return agg, err
		}
		s.Node = node
		agg.Add(st)
	}
	return agg, nil
}
