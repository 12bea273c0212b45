package topology

// Factored transit-stub latency.
//
// A full all-pairs shortest-path matrix is O(n²) memory and O(n·E·log n)
// time: at 16k nodes that is ~2.1 GB and tens of seconds of Dijkstra.
// Transit-stub topologies admit an exact factored form because every stub
// domain hangs off the transit core by exactly one uplink edge (a cut
// edge), which Generate guarantees by construction:
//
//   - a shortest path between two nodes of the same stub domain never
//     leaves the domain (leaving costs the uplink twice, and the local
//     shortest path is already minimal within the domain);
//   - a shortest path between transit nodes never enters a stub domain
//     (it would have to exit through the same uplink it entered by);
//   - every other path crosses the cut edges of the endpoint domains, so
//     dist(a,b) = local(a,gw_a) + up_a + transit(t_a,t_b) + up_b + local(gw_b,b).
//
// The tables therefore hold one APSP over the transit subgraph (16×16 at
// the default core), one local APSP per stub domain (16×16 per domain at
// X17 scale), and two O(n) per-node arrays — ~3 MB at 16k nodes versus
// 2.1 GB dense, with O(1) lookups.
type factored struct {
	anchor   []int32       // per node: its anchor transit node (itself for transit nodes)
	toAnchor []float64     // per node: shortest latency to that anchor (0 for transit)
	domain   []int32       // per node: stub domain, or -1 for transit nodes
	domIdx   []int32       // per node: index within its stub domain
	transit  [][]float64   // APSP over the transit subgraph
	local    [][][]float64 // per stub domain: local APSP over its members
}

func (s *factored) dist(a, b NodeID) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a // canonical summation order keeps dist symmetric to the ulp
	}
	if da := s.domain[a]; da >= 0 && da == s.domain[b] {
		return s.local[da][s.domIdx[a]][s.domIdx[b]]
	}
	return s.toAnchor[a] + s.transit[s.anchor[a]][s.anchor[b]] + s.toAnchor[b]
}

// EnableSparseLatency does nothing: every topology answers Latency from
// the factored tables Generate builds. It stays because the frozen
// benchmark harness under bench/ names it.
func (t *Topology) EnableSparseLatency() error { return nil }

// buildFactored computes the tables from the node layout Generate lays
// down: transit nodes hold the low IDs, each stub domain a contiguous ID
// range starting at its gateway, and t.uplinks the edge joining that
// gateway (A) to its transit node (B).
func (t *Topology) buildFactored() *factored {
	n := len(t.nodes)
	s := &factored{
		anchor:   make([]int32, n),
		toAnchor: make([]float64, n),
		domain:   make([]int32, n),
		domIdx:   make([]int32, n),
		local:    make([][][]float64, len(t.uplinks)),
	}
	nt := 0
	for nt < n && t.nodes[nt].Kind == Transit {
		s.anchor[nt] = int32(nt)
		s.domain[nt] = -1
		nt++
	}
	s.transit = t.apspWithin(0, NodeID(nt))
	for d, ei := range t.uplinks {
		up := t.edges[ei]
		lo, hi := up.A, NodeID(n)
		if d+1 < len(t.uplinks) {
			hi = t.edges[t.uplinks[d+1]].A
		}
		s.local[d] = t.apspWithin(lo, hi)
		for id := lo; id < hi; id++ {
			s.anchor[id] = int32(up.B)
			s.toAnchor[id] = s.local[d][id-lo][0] + up.Latency
			s.domain[id] = int32(d)
			s.domIdx[id] = int32(id - lo)
		}
	}
	return s
}

// apspWithin solves all pairs over the subgraph induced by the node range
// [lo,hi); entry [i][j] is the latency from lo+i to lo+j. The matrix is
// symmetrized from its upper triangle: per-source Dijkstra sums can
// differ by an ulp per direction.
func (t *Topology) apspWithin(lo, hi NodeID) [][]float64 {
	m := make([][]float64, hi-lo)
	for i := range m {
		m[i] = t.dijkstraWithin(lo+NodeID(i), lo, hi)
	}
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			m[j][i] = m[i][j]
		}
	}
	return m
}

// dijkstraWithin runs single-source shortest paths from src over the
// subgraph induced by the node range [lo,hi); entry i of the result is
// the latency to node lo+i.
func (t *Topology) dijkstraWithin(src, lo, hi NodeID) []float64 {
	const inf = 1e18
	dist := make([]float64, hi-lo)
	for i := range dist {
		dist[i] = inf
	}
	dist[src-lo] = 0
	pq := &distHeap{items: []distItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node-lo] {
			continue
		}
		for _, nb := range t.adj[it.node] {
			if nb.to < lo || nb.to >= hi {
				continue
			}
			if d := it.dist + nb.lat; d < dist[nb.to-lo] {
				dist[nb.to-lo] = d
				pq.push(distItem{node: nb.to, dist: d})
			}
		}
	}
	return dist
}
