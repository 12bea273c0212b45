// Package topology generates and queries synthetic wide-area network
// topologies for SBON simulation.
//
// The generator produces GT-ITM–style transit-stub graphs: a small core of
// interconnected transit domains, with stub domains (edge networks) hanging
// off transit nodes. This is the topology class the paper uses for its
// Figure 2 ("a simulated transit-stub network topology with 600 nodes").
//
// Latencies are attached to edges by class (intra-stub < stub uplink <
// intra-transit < inter-transit) and end-to-end latency between any two
// nodes is the shortest-path sum, computed by Dijkstra and cached as an
// all-pairs matrix.
package topology

import (
	"fmt"
	"math/rand"
)

// NodeID identifies a node within one Topology. IDs are dense, starting
// at 0, so they can index slices directly.
type NodeID int

// Kind distinguishes transit (core) nodes from stub (edge) nodes.
type Kind uint8

// Node kinds.
const (
	Transit Kind = iota
	Stub
)

// String returns "transit" or "stub".
func (k Kind) String() string {
	switch k {
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node describes one vertex of the topology.
type Node struct {
	ID NodeID
	// Kind is Transit for core routers and Stub for edge hosts.
	Kind Kind
	// TransitDomain is the index of the transit domain this node belongs
	// to (for stub nodes: the domain of their uplink transit node).
	TransitDomain int
	// StubDomain is the index of the stub domain (unique across the whole
	// topology) or -1 for transit nodes.
	StubDomain int
}

// Edge is an undirected link with a latency in milliseconds.
type Edge struct {
	A, B    NodeID
	Latency float64
}

// Config parameterizes the transit-stub generator. The total node count is
// TransitDomains·TransitNodes (core) plus one stub domain of StubNodes per
// (transit node, stub) pair: TransitDomains·TransitNodes·StubsPerTransit·StubNodes.
type Config struct {
	// TransitDomains is the number of transit (core) domains.
	TransitDomains int
	// TransitNodes is the number of transit nodes per transit domain.
	TransitNodes int
	// StubsPerTransit is the number of stub domains attached to each
	// transit node.
	StubsPerTransit int
	// StubNodes is the number of nodes per stub domain.
	StubNodes int

	// Latency ranges [min,max) in milliseconds per edge class.
	IntraStubLatency    [2]float64 // edges inside a stub domain
	StubUplinkLatency   [2]float64 // stub node -> its transit node
	IntraTransitLatency [2]float64 // edges inside a transit domain
	InterTransitLatency [2]float64 // edges between transit domains

	// ExtraStubEdgeProb adds redundant intra-stub edges with this
	// probability per node pair (beyond the ring that guarantees
	// connectivity). Typical values are small (0.05–0.3).
	ExtraStubEdgeProb float64
}

// DefaultConfig returns the configuration used throughout the experiments:
// 4 transit domains × 4 transit nodes, 3 stub domains per transit node,
// 12 nodes per stub domain ⇒ 16 transit + 576 stub = 592 ≈ 600 nodes
// (the paper's Figure 2 scale).
func DefaultConfig() Config {
	return Config{
		TransitDomains:      4,
		TransitNodes:        4,
		StubsPerTransit:     3,
		StubNodes:           12,
		IntraStubLatency:    [2]float64{1, 6},
		StubUplinkLatency:   [2]float64{2, 12},
		IntraTransitLatency: [2]float64{8, 25},
		InterTransitLatency: [2]float64{35, 90},
		ExtraStubEdgeProb:   0.15,
	}
}

// Validate reports whether the configuration describes a buildable
// topology.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains = %d, need >= 1", c.TransitDomains)
	case c.TransitNodes < 1:
		return fmt.Errorf("topology: TransitNodes = %d, need >= 1", c.TransitNodes)
	case c.StubsPerTransit < 0:
		return fmt.Errorf("topology: StubsPerTransit = %d, need >= 0", c.StubsPerTransit)
	case c.StubNodes < 1 && c.StubsPerTransit > 0:
		return fmt.Errorf("topology: StubNodes = %d, need >= 1", c.StubNodes)
	}
	for _, r := range [][2]float64{c.IntraStubLatency, c.StubUplinkLatency, c.IntraTransitLatency, c.InterTransitLatency} {
		if r[0] < 0 || r[1] < r[0] {
			return fmt.Errorf("topology: invalid latency range %v", r)
		}
	}
	if c.ExtraStubEdgeProb < 0 || c.ExtraStubEdgeProb > 1 {
		return fmt.Errorf("topology: ExtraStubEdgeProb = %v, need in [0,1]", c.ExtraStubEdgeProb)
	}
	return nil
}

// TotalNodes returns the node count the configuration will produce.
func (c Config) TotalNodes() int {
	core := c.TransitDomains * c.TransitNodes
	return core + core*c.StubsPerTransit*c.StubNodes
}

// Topology is an undirected latency-weighted graph plus cached shortest
// paths. It is immutable after generation except through PerturbLatencies,
// which invalidates the cache.
type Topology struct {
	nodes []Node
	adj   [][]neighbor // adjacency lists
	edges []Edge

	latency [][]float64 // all-pairs shortest-path latency; nil until computed

	// sparse, when non-nil, answers Latency from the factored transit-stub
	// decomposition (see sparse.go) without materializing the dense matrix.
	sparse *sparseLatency
}

type neighbor struct {
	to  NodeID
	lat float64
}

// Generate builds a transit-stub topology from cfg using rng for all
// randomness. The result is connected by construction.
func Generate(cfg Config, rng *rand.Rand) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{}
	sample := func(r [2]float64) float64 {
		if r[1] == r[0] {
			return r[0]
		}
		return r[0] + rng.Float64()*(r[1]-r[0])
	}

	// Transit nodes first so that transit IDs are the low indices.
	transitIDs := make([][]NodeID, cfg.TransitDomains) // per domain
	for d := 0; d < cfg.TransitDomains; d++ {
		for i := 0; i < cfg.TransitNodes; i++ {
			id := NodeID(len(t.nodes))
			t.nodes = append(t.nodes, Node{ID: id, Kind: Transit, TransitDomain: d, StubDomain: -1})
			transitIDs[d] = append(transitIDs[d], id)
		}
	}
	t.adj = make([][]neighbor, len(t.nodes), cfg.TotalNodes())

	// Intra-transit-domain: ring plus one chord per domain (if >= 4 nodes)
	// for redundancy.
	for d := 0; d < cfg.TransitDomains; d++ {
		ids := transitIDs[d]
		n := len(ids)
		if n == 1 {
			continue
		}
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			if n == 2 && i == 1 {
				break // avoid duplicating the single edge
			}
			t.addEdge(ids[i], ids[j], sample(cfg.IntraTransitLatency))
		}
		if n >= 4 {
			t.addEdge(ids[0], ids[n/2], sample(cfg.IntraTransitLatency))
		}
	}

	// Inter-transit-domain: ring over domains plus a chord, connecting a
	// random node of each domain pair.
	if cfg.TransitDomains > 1 {
		for d := 0; d < cfg.TransitDomains; d++ {
			e := (d + 1) % cfg.TransitDomains
			if cfg.TransitDomains == 2 && d == 1 {
				break
			}
			a := transitIDs[d][rng.Intn(len(transitIDs[d]))]
			b := transitIDs[e][rng.Intn(len(transitIDs[e]))]
			t.addEdge(a, b, sample(cfg.InterTransitLatency))
		}
		if cfg.TransitDomains >= 4 {
			a := transitIDs[0][rng.Intn(len(transitIDs[0]))]
			b := transitIDs[cfg.TransitDomains/2][rng.Intn(len(transitIDs[cfg.TransitDomains/2]))]
			t.addEdge(a, b, sample(cfg.InterTransitLatency))
		}
	}

	// Stub domains: per (transit node, k) a connected cluster whose
	// gateway (first node) uplinks to the transit node.
	stubDomain := 0
	for d := 0; d < cfg.TransitDomains; d++ {
		for _, tid := range transitIDs[d] {
			for k := 0; k < cfg.StubsPerTransit; k++ {
				ids := make([]NodeID, 0, cfg.StubNodes)
				for i := 0; i < cfg.StubNodes; i++ {
					id := NodeID(len(t.nodes))
					t.nodes = append(t.nodes, Node{ID: id, Kind: Stub, TransitDomain: d, StubDomain: stubDomain})
					t.adj = append(t.adj, nil)
					ids = append(ids, id)
				}
				// Uplink from the gateway.
				t.addEdge(ids[0], tid, sample(cfg.StubUplinkLatency))
				// Ring inside the stub domain guarantees connectivity.
				n := len(ids)
				if n > 1 {
					for i := 0; i < n; i++ {
						j := (i + 1) % n
						if n == 2 && i == 1 {
							break
						}
						t.addEdge(ids[i], ids[j], sample(cfg.IntraStubLatency))
					}
				}
				// Random extra chords.
				for i := 0; i < n; i++ {
					for j := i + 2; j < n; j++ {
						if i == 0 && j == n-1 {
							continue // ring edge already present
						}
						if rng.Float64() < cfg.ExtraStubEdgeProb {
							t.addEdge(ids[i], ids[j], sample(cfg.IntraStubLatency))
						}
					}
				}
				stubDomain++
			}
		}
	}
	return t, nil
}

// MustGenerate is Generate but panics on configuration error; intended
// for tests and examples with known-good configs.
func MustGenerate(cfg Config, rng *rand.Rand) *Topology {
	t, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Topology) addEdge(a, b NodeID, lat float64) {
	t.adj[a] = append(t.adj[a], neighbor{to: b, lat: lat})
	t.adj[b] = append(t.adj[b], neighbor{to: a, lat: lat})
	t.edges = append(t.edges, Edge{A: a, B: b, Latency: lat})
	t.latency = nil
	t.sparse = nil
}

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Nodes returns all nodes in ID order. The caller must not modify the
// returned slice.
func (t *Topology) Nodes() []Node { return t.nodes }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Edges returns all edges. The caller must not modify the returned slice.
func (t *Topology) Edges() []Edge { return t.edges }

// Degree returns the number of edges incident to id.
func (t *Topology) Degree(id NodeID) int { return len(t.adj[id]) }

// MinEdgeLatency returns the smallest single-edge latency in the graph,
// in milliseconds (0 for an edgeless topology). Any path between two
// distinct nodes crosses at least one edge, so this bounds every
// pairwise latency from below — the conservative lookahead the sharded
// simulation data plane windows by.
func (t *Topology) MinEdgeLatency() float64 {
	min := 0.0
	for i, e := range t.edges {
		if i == 0 || e.Latency < min {
			min = e.Latency
		}
	}
	return min
}

// StubNodeIDs returns the IDs of all stub nodes in ascending order.
func (t *Topology) StubNodeIDs() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == Stub {
			out = append(out, n.ID)
		}
	}
	return out
}

// TransitNodeIDs returns the IDs of all transit nodes in ascending order.
func (t *Topology) TransitNodeIDs() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == Transit {
			out = append(out, n.ID)
		}
	}
	return out
}

// StubDomainMembers returns the node IDs in the given stub domain.
func (t *Topology) StubDomainMembers(stubDomain int) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.StubDomain == stubDomain {
			out = append(out, n.ID)
		}
	}
	return out
}

// NumStubDomains returns the count of distinct stub domains.
func (t *Topology) NumStubDomains() int {
	max := -1
	for _, n := range t.nodes {
		if n.StubDomain > max {
			max = n.StubDomain
		}
	}
	return max + 1
}

// Latency returns the shortest-path latency in milliseconds between a and
// b. In sparse mode (EnableSparseLatency) it answers from the factored
// decomposition in O(1) without a dense matrix; otherwise it computes and
// caches the all-pairs matrix on first use. The lazy dense computation is
// not goroutine-safe: callers that share a Topology across goroutines must
// either enable sparse mode or force the cache once via LatencyMatrix
// before concurrent reads.
func (t *Topology) Latency(a, b NodeID) float64 {
	if t.sparse != nil {
		return t.sparse.dist(a, b)
	}
	if t.latency == nil {
		t.computeAPSP()
	}
	return t.latency[a][b]
}

// LatencyMatrix returns the full all-pairs shortest-path latency matrix.
// The caller must not modify it.
func (t *Topology) LatencyMatrix() [][]float64 {
	if t.latency == nil {
		t.computeAPSP()
	}
	return t.latency
}

// computeAPSP fills the latency cache via one Dijkstra run per source.
// The matrix is symmetrized afterwards: the graph is undirected, but
// floating-point summation order can differ per source by an ulp.
func (t *Topology) computeAPSP() {
	n := len(t.nodes)
	t.latency = make([][]float64, n)
	for s := 0; s < n; s++ {
		t.latency[s] = t.dijkstra(NodeID(s))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.latency[j][i] = t.latency[i][j]
		}
	}
}

// dijkstra computes single-source shortest-path latencies from src.
func (t *Topology) dijkstra(src NodeID) []float64 {
	n := len(t.nodes)
	const inf = 1e18
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, nb := range t.adj[it.node] {
			if d := it.dist + nb.lat; d < dist[nb.to] {
				dist[nb.to] = d
				pq.push(distItem{node: nb.to, dist: d})
			}
		}
	}
	return dist
}

// PerturbLatencies multiplies every edge latency by a random factor in
// [1-amount, 1+amount], modelling network dynamics, and invalidates the
// cached shortest paths. Latencies are floored at 0.1 ms.
func (t *Topology) PerturbLatencies(rng *rand.Rand, amount float64) {
	if amount < 0 {
		amount = -amount
	}
	for i := range t.edges {
		f := 1 + (rng.Float64()*2-1)*amount
		lat := t.edges[i].Latency * f
		if lat < 0.1 {
			lat = 0.1
		}
		t.edges[i].Latency = lat
	}
	// Rebuild adjacency from edges to keep both views consistent.
	for i := range t.adj {
		t.adj[i] = t.adj[i][:0]
	}
	for _, e := range t.edges {
		t.adj[e.A] = append(t.adj[e.A], neighbor{to: e.B, lat: e.Latency})
		t.adj[e.B] = append(t.adj[e.B], neighbor{to: e.A, lat: e.Latency})
	}
	t.latency = nil
	if t.sparse != nil {
		// Perturbation changes edge weights, never the graph shape, so the
		// decomposition stays valid and rebuilds cheaply in place.
		s, err := t.buildSparse()
		if err != nil {
			panic(err) // unreachable: shape was validated at enable time
		}
		t.sparse = s
	}
}

// distHeap is a binary min-heap over tentative distances. A hand-rolled
// heap avoids the interface indirection of container/heap in the hot APSP
// loop.
type distHeap struct {
	items []distItem
}

type distItem struct {
	node NodeID
	dist float64
}

func (h *distHeap) Len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < last && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
