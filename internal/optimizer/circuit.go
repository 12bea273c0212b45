package optimizer

import (
	"fmt"
	"strings"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// PlacedService is one service of a deployed circuit bound to a physical
// node. The consumer endpoint is modelled as a pinned pseudo-service with
// a nil Plan.
type PlacedService struct {
	// Plan is the logical operator this service runs (nil for the
	// consumer sink).
	Plan *query.PlanNode
	// Node is the hosting overlay node.
	Node topology.NodeID
	// Pinned services have predetermined locations: producers, consumer,
	// and reused instances.
	Pinned bool
	// Reused marks services satisfied by an existing instance from
	// another circuit (multi-query optimization).
	Reused bool
	// ReusedFrom references the shared instance when Reused.
	ReusedFrom *ServiceInstance
	// Virtual is the coordinate chosen by virtual placement (empty for
	// pinned services).
	Virtual vivaldi.Coord
	// Signature canonically identifies the computed stream.
	Signature string
	// OutRate is the service output rate in KB/s.
	OutRate float64
	// InRate is the summed input rate, which drives load accounting.
	InRate float64
}

// Link is a directed circuit edge carrying Rate KB/s of stream data.
type Link struct {
	From, To int // indices into Circuit.Services
	Rate     float64
	// Shared links belong to a reused upstream sub-circuit and are not
	// charged to this circuit (their owner already pays for them).
	Shared bool
}

// Circuit is the physical instantiation of a query (the paper's term):
// services bound to nodes, connected by rated links.
type Circuit struct {
	Query    query.Query
	Plan     *query.PlanNode
	Services []*PlacedService
	Links    []Link

	rootIdx     int // index of the root service (plan root)
	consumerIdx int // index of the consumer sink

	// Backing storage, so that building a circuit costs a handful of
	// allocations and rebuilding one in place costs none: Services[i]
	// points at slab[i], and the unpinned services' Virtual coordinates
	// are consecutive slices of coords, in service order.
	slab   []PlacedService
	coords []float64
}

// add appends a service; the slab must have room (skeletonInto sizes it).
func (c *Circuit) add(s PlacedService) int {
	c.slab = append(c.slab, s)
	c.Services = append(c.Services, &c.slab[len(c.slab)-1])
	return len(c.Services) - 1
}

// owned writes r to dst with a copy of c as its Circuit, carved from
// b's blocks, and returns dst; a nil dst is carved too. The copy shares
// no storage with c, so a circuit evaluated on scratch becomes a result
// that can be kept while the scratch is reused. The copy gets a plan of
// its own, in the node block, as a circuit planned over the shared
// sub-plans of an enumeration must, and is signed, its signature carved
// from the byte block.
func (b *Builder) owned(dst *Result, r Result, c *Circuit) *Result {
	out := &take(&b.circuits, 1)[0]
	*out = *c
	b.carveStorage(out)
	nodes, i := take(&b.nodes, planSize(c.Plan)), 0
	out.Plan = out.clonePlan(c.Plan, &nodes, &i)
	out.sign(&b.bytes)
	if dst == nil {
		dst = &take(&b.results, 1)[0]
	}
	*dst = r
	dst.Circuit = out
	return dst
}

// moveOut returns a signed heap copy of c's header, with c's storage
// and plan: c, a scratch circuit, is emptied, so that the next skeleton
// built on it allocates anew instead of writing the copy. For a Builder
// that places few winners this costs less than owned's carve.
func (c *Circuit) moveOut() *Circuit {
	out := new(Circuit)
	*out, *c = *c, Circuit{}
	out.sign(nil)
	return out
}

// carveStorage re-points c at copies of its services, links and virtual
// coordinates, carved from b's blocks, so that writing them reaches no
// other circuit.
func (b *Builder) carveStorage(c *Circuit) {
	d := 0
	for _, s := range c.Services {
		d += len(s.Virtual)
	}
	services, slab := take(&b.services, len(c.Services)), take(&b.slab, len(c.Services))
	coords := take(&b.coords, d)[:0]
	for i, s := range c.Services {
		slab[i] = *s
		if v := s.Virtual; len(v) > 0 {
			coords = append(coords, v...)
			slab[i].Virtual = coords[len(coords)-len(v) : len(coords) : len(coords)]
		}
		services[i] = &slab[i]
	}
	c.Services, c.slab, c.coords = services, slab, coords
	c.Links = append(take(&b.links, len(c.Links))[:0], c.Links...)
}

// sign signs the plan, one string for the whole tree, carved from
// *arena unless it is nil (see query.Carve), and gives each service its
// node's. Circuits are signed as they leave the Builder.
func (c *Circuit) sign(arena *[]byte) {
	c.Plan.SignIn(arena)
	for _, s := range c.Services {
		if s.Plan != nil {
			s.Signature = s.Plan.Signature()
		}
	}
}

// clonePlan copies the tree under from into *nodes, in pre-order, and
// re-points the services at the copies, which keep from's cached
// signatures (the structure is the same). Services are in the plan's
// post-order (a reused sub-plan contributes only its root), so one walk
// pairs them; *i is the next service to pair.
func (c *Circuit) clonePlan(from *query.PlanNode, nodes *[]query.PlanNode, i *int) *query.PlanNode {
	if from == nil {
		return nil
	}
	to := &(*nodes)[0]
	*to, *nodes = *from, (*nodes)[1:]
	to.Left = c.clonePlan(from.Left, nodes, i)
	to.Right = c.clonePlan(from.Right, nodes, i)
	if c.Services[*i].Plan == from {
		c.Services[*i].Plan = to
		*i++
	}
	return to
}

// Root returns the service running the plan root.
func (c *Circuit) Root() *PlacedService { return c.Services[c.rootIdx] }

// Consumer returns the consumer sink pseudo-service.
func (c *Circuit) Consumer() *PlacedService { return c.Services[c.consumerIdx] }

// UnpinnedServices returns the services this circuit itself placed (not
// producers, not the consumer, not reused instances).
func (c *Circuit) UnpinnedServices() []*PlacedService {
	var out []*PlacedService
	for _, s := range c.Services {
		if !s.Pinned && s.Plan != nil {
			out = append(out, s)
		}
	}
	return out
}

// NewServices returns all non-reused operator services (the ones whose
// load this circuit is charged for), including pinned producer-side
// filters but excluding sources and the consumer sink.
func (c *Circuit) NewServices() []*PlacedService {
	var out []*PlacedService
	for _, s := range c.Services {
		if s.Plan == nil || s.Reused || s.Plan.Kind == query.KindSource {
			continue
		}
		out = append(out, s)
	}
	return out
}

// NetworkUsage returns Σ rate·latency over the circuit's own (non-shared)
// links under the given latency model — the paper's network utilization
// metric, "the amount of data in transit in the network".
func (c *Circuit) NetworkUsage(m LatencyModel) float64 {
	var sum float64
	for _, l := range c.Links {
		if l.Shared {
			continue
		}
		sum += l.Rate * m.Latency(c.Services[l.From].Node, c.Services[l.To].Node)
	}
	return sum
}

// TotalLinkRate returns the summed rate of non-shared links (bandwidth
// injected into the network by this circuit).
func (c *Circuit) TotalLinkRate() float64 {
	var sum float64
	for _, l := range c.Links {
		if !l.Shared {
			sum += l.Rate
		}
	}
	return sum
}

// ConsumerLatency returns the maximum producer→consumer path latency
// under the model. Paths through reused instances start from the
// instance's recorded upstream latency.
func (c *Circuit) ConsumerLatency(m LatencyModel) float64 {
	return c.upstreamLatency(c.consumerIdx, m)
}

// upstreamLatency returns the maximum producer→service path latency
// under the model for the service at index i, starting paths through
// reused instances from the instance's recorded upstream latency.
func (c *Circuit) upstreamLatency(i int, m LatencyModel) float64 {
	// Build child lists from links (From feeds To).
	children := make([][]int, len(c.Services))
	for _, l := range c.Links {
		children[l.To] = append(children[l.To], l.From)
	}
	var depth func(i int) float64
	depth = func(i int) float64 {
		s := c.Services[i]
		if s.Reused && s.ReusedFrom != nil {
			return s.ReusedFrom.UpstreamLatency
		}
		var max float64
		for _, ch := range children[i] {
			d := depth(ch) + m.Latency(c.Services[ch].Node, c.Services[i].Node)
			if d > max {
				max = d
			}
		}
		return max
	}
	return depth(i)
}

// LoadPenalty returns the summed scalar (load) cost-space components of
// the nodes hosting this circuit's own unpinned services — how much the
// circuit is leaning on busy nodes.
func (c *Circuit) LoadPenalty(e *Env) float64 {
	var sum float64
	for _, s := range c.UnpinnedServices() {
		for _, comp := range e.space.ScalarComponents(e.Point(s.Node)) {
			sum += comp
		}
	}
	return sum
}

// String renders the circuit's service-to-node binding for logs.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit q%d:", c.Query.ID)
	for _, s := range c.Services {
		switch {
		case s.Plan == nil:
			fmt.Fprintf(&b, " consumer@%d", s.Node)
		case s.Plan.Kind == query.KindSource:
			fmt.Fprintf(&b, " S%d@%d", s.Plan.Stream, s.Node)
		case s.Reused:
			fmt.Fprintf(&b, " %s@%d(reused)", s.Plan.Kind, s.Node)
		default:
			fmt.Fprintf(&b, " %s@%d", s.Plan.Kind, s.Node)
		}
	}
	return b.String()
}

// Validate checks internal consistency: link endpoints in range, exactly
// one consumer, a root feeding it, and rates propagated.
func (c *Circuit) Validate() error {
	if len(c.Services) == 0 {
		return fmt.Errorf("optimizer: circuit has no services")
	}
	if c.consumerIdx < 0 || c.consumerIdx >= len(c.Services) || c.Services[c.consumerIdx].Plan != nil {
		return fmt.Errorf("optimizer: circuit consumer index invalid")
	}
	feeds := false
	for _, l := range c.Links {
		if l.From < 0 || l.From >= len(c.Services) || l.To < 0 || l.To >= len(c.Services) {
			return fmt.Errorf("optimizer: link endpoints (%d,%d) out of range", l.From, l.To)
		}
		if l.Rate <= 0 {
			return fmt.Errorf("optimizer: link (%d,%d) rate %v", l.From, l.To, l.Rate)
		}
		if l.To == c.consumerIdx {
			feeds = true
		}
	}
	if !feeds {
		return fmt.Errorf("optimizer: nothing feeds the consumer")
	}
	return nil
}
