package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dijkstra is the reference the factored tables are checked against:
// single-source shortest-path latencies from src over the whole graph.
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

// matchesDijkstra checks Latency over every node pair: within 1e-9
// relative of the reference Dijkstra (the two sum the same path in
// different float orders), symmetric bit for bit, and 0 on the diagonal.
func matchesDijkstra(top *Topology) error {
	n := top.NumNodes()
	for a := 0; a < n; a++ {
		ref := top.dijkstra(NodeID(a))
		for b := 0; b < n; b++ {
			got := top.Latency(NodeID(a), NodeID(b))
			if want := ref[b]; math.Abs(got-want) > 1e-9*(1+want) {
				return fmt.Errorf("Latency(%d,%d) = %v, Dijkstra = %v", a, b, got, want)
			}
			if back := top.Latency(NodeID(b), NodeID(a)); back != got {
				return fmt.Errorf("Latency(%d,%d) = %v, Latency(%d,%d) = %v", a, b, got, b, a, back)
			}
		}
		if d := top.Latency(NodeID(a), NodeID(a)); d != 0 {
			return fmt.Errorf("Latency(%d,%d) = %v, want 0", a, a, d)
		}
	}
	return nil
}

// TestLatencyMatchesDijkstra checks the factored transit-stub tables
// against the reference Dijkstra over every node pair.
func TestLatencyMatchesDijkstra(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		top := MustGenerate(DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err := matchesDijkstra(top); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSparseSurvivesPerturbation: PerturbLatencies rebuilds the tables,
// and they must stay exact against the reference on the new weights.
func TestSparseSurvivesPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	top := MustGenerate(DefaultConfig(), rng)
	top.PerturbLatencies(rng, 0.3)
	if err := matchesDijkstra(top); err != nil {
		t.Fatalf("after perturb: %v", err)
	}
}

// TestSparseLargeTopology exercises the X17-scale configuration (16k+
// nodes) where a dense matrix (~2 GB) would not fit.
func TestSparseLargeTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TransitDomains = 4
	cfg.TransitNodes = 4
	cfg.StubsPerTransit = 64
	cfg.StubNodes = 16
	top := MustGenerate(cfg, rand.New(rand.NewSource(3)))
	if got := top.NumNodes(); got < 16000 {
		t.Fatalf("expected >= 16000 nodes, got %d", got)
	}
	// Spot-check metric properties: symmetry, identity, triangle inequality.
	rng := rand.New(rand.NewSource(4))
	n := top.NumNodes()
	for i := 0; i < 2000; i++ {
		a, b, c := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		ab, ba := top.Latency(a, b), top.Latency(b, a)
		if ab != ba {
			t.Fatalf("asymmetric: Latency(%d,%d)=%v, Latency(%d,%d)=%v", a, b, ab, b, a, ba)
		}
		if a == b && ab != 0 {
			t.Fatalf("Latency(%d,%d) = %v, want 0", a, b, ab)
		}
		if ac := top.Latency(a, c); ac > ab+top.Latency(b, c)+1e-9 {
			t.Fatalf("triangle violation: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)", a, c, ac, a, b, b, c)
		}
	}
}
