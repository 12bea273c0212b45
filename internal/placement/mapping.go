package placement

import (
	"cmp"
	"fmt"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// NodeSource exposes the current cost-space coordinates of overlay nodes
// to physical mappers through an exact k-NN index. The optimizer's
// environment, snapshots and planning shadows implement it.
type NodeSource interface {
	// Space returns the cost space the coordinates live in.
	Space() *costspace.Space
	// CostIndex returns the current index over every candidate host;
	// node ids are index ids.
	CostIndex() *costindex.Index
}

// MapStats records the routing/search cost of one physical mapping.
type MapStats struct {
	LookupHops  int
	PeersWalked int
	Candidates  int
	// Error is the full-space distance from the ideal coordinate to the
	// chosen node's coordinate — the paper's mapping error.
	Error float64
}

// Add sums another mapping's statistics into s.
func (s *MapStats) Add(o MapStats) {
	s.LookupHops += o.LookupHops
	s.PeersWalked += o.PeersWalked
	s.Candidates += o.Candidates
	s.Error += o.Error
}

// Mapper maps an ideal vector coordinate to a physical node. The target's
// scalar components are ideal (zero), so nodes with high scalar cost
// appear distant (the Figure 3 mechanism).
type Mapper interface {
	// MapCoord returns the node hosting a service whose virtual placement
	// chose the given vector coordinate. Nodes in exclude are skipped
	// (used when a circuit must not co-locate services, or a node is
	// being drained).
	MapCoord(start topology.NodeID, vec vivaldi.Coord, exclude map[topology.NodeID]bool) (topology.NodeID, MapStats, error)
	// Name identifies the mapper in experiment output.
	Name() string
}

// SourceMapper is a Mapper that reads node points from a NodeSource and
// can be re-pointed at another one: a planning shadow, a frozen
// snapshot. On returns the same mapper reading from src.
type SourceMapper interface {
	Mapper
	On(src NodeSource) Mapper
}

// idealDims is the dimensionality up to which a mapper assembles its
// ideal target point on its own stack; wider spaces grow the buffer on
// the heap. Mappers are stateless values shared between goroutines, so
// the scratch is per call.
const idealDims = 8

// excludeFunc adapts a node exclusion set to the index callback form.
// A nil/empty set maps to a nil callback (the index's fast path).
func excludeFunc(exclude map[topology.NodeID]bool) func(int32) bool {
	if len(exclude) == 0 {
		return nil
	}
	return func(id int32) bool { return exclude[topology.NodeID(id)] }
}

// admissible counts the non-excluded candidates among n nodes: the
// Candidates statistic.
func admissible(n int, exclude map[topology.NodeID]bool) int {
	out := n
	for id, ex := range exclude {
		if ex && int(id) >= 0 && int(id) < n {
			out--
		}
	}
	return out
}

// OracleMapper returns the node whose coordinate is nearest in
// full-space distance — exact, centralised, and therefore the ground
// truth mapping-error baseline. It answers through the source's k-NN
// index in O(log N); a tie goes to the lowest node id.
type OracleMapper struct {
	Source NodeSource
}

// Name implements Mapper.
func (OracleMapper) Name() string { return "oracle" }

// On implements SourceMapper.
func (OracleMapper) On(src NodeSource) Mapper { return OracleMapper{Source: src} }

// MapCoord implements Mapper.
func (m OracleMapper) MapCoord(_ topology.NodeID, vec vivaldi.Coord, exclude map[topology.NodeID]bool) (topology.NodeID, MapStats, error) {
	space := m.Source.Space()
	var buf [idealDims]float64
	target := space.AppendIdealPoint(buf[:0], vec)

	ix := m.Source.CostIndex()
	id, dist, found := ix.Nearest(target, excludeFunc(exclude))
	if !found {
		return 0, MapStats{}, fmt.Errorf("placement: no candidate nodes (all excluded)")
	}
	return topology.NodeID(id), MapStats{Candidates: admissible(ix.Len(), exclude), Error: dist}, nil
}

// DHTMapper is the paper's decentralized mapping: look up the ideal
// coordinate's Hilbert key in the DHT and take the nearest published
// node coordinate (§3.2) among the Candidates nearest entries, ranked by
// full-space distance, that a bounded ring walk around the key finds.
type DHTMapper struct {
	Catalog *dht.Catalog
	// Candidates is how many nearby entries to consider (default 8).
	Candidates int
	// MaxScan bounds the ring walk (default 32 peers).
	MaxScan int
}

// Name implements Mapper.
func (DHTMapper) Name() string { return "hilbert-dht" }

// MapCoord implements Mapper: one key, one lookup, one pass over the
// walked entries.
func (m DHTMapper) MapCoord(start topology.NodeID, vec vivaldi.Coord, exclude map[topology.NodeID]bool) (topology.NodeID, MapStats, error) {
	if m.Catalog == nil {
		return 0, MapStats{}, fmt.Errorf("placement: DHTMapper has no catalog")
	}
	var buf [idealDims]float64
	target := m.Catalog.Space().AppendIdealPoint(buf[:0], vec)
	// Consider extra candidates to survive exclusions: with more
	// candidates than exclusions the nearest admissible entry is always
	// among them, so the catalog need not rank them to find it.
	cands, scan := m.limits()
	res, err := m.Catalog.NearestAdmissible(start, target, cands+len(exclude), scan, exclude)
	if err != nil {
		return 0, MapStats{}, err
	}
	return nearestNode(res)
}

// Remap repeats a MapCoord of vec without exclusions on a ring that has
// not changed since and is not Faulty: the walk starts at the owner of
// the target's key, where the lookup ended, and reports no LookupHops.
func (m DHTMapper) Remap(vec vivaldi.Coord) (topology.NodeID, MapStats, error) {
	var buf [idealDims]float64
	target := m.Catalog.Space().AppendIdealPoint(buf[:0], vec)
	cands, scan := m.limits()
	return nearestNode(m.Catalog.NearestFrom(m.Catalog.Ring().Owner(m.Catalog.KeyOf(target)), target, cands, scan, nil))
}

// limits returns the candidate count and the walk bound, defaulted.
func (m DHTMapper) limits() (cands, scan int) {
	return cmp.Or(max(m.Candidates, 0), 8), cmp.Or(max(m.MaxScan, 0), 32)
}

func nearestNode(res dht.Nearest) (topology.NodeID, MapStats, error) {
	stats := MapStats{LookupHops: res.LookupHops, PeersWalked: res.PeersWalked, Candidates: res.Candidates, Error: res.Distance}
	if !res.Found {
		return 0, stats, fmt.Errorf("placement: DHT walk found no admissible node (got %d entries)", res.Candidates)
	}
	return res.Node, stats, nil
}

// VectorOnlyMapper ranks candidates by vector-subspace distance only,
// ignoring scalar (load) dimensions. It exists to demonstrate the Figure
// 3 failure mode: it will happily pick the overloaded nearer node N1.
type VectorOnlyMapper struct {
	Source NodeSource
}

// Name implements Mapper.
func (VectorOnlyMapper) Name() string { return "vector-only" }

// On implements SourceMapper.
func (VectorOnlyMapper) On(src NodeSource) Mapper { return VectorOnlyMapper{Source: src} }

// MapCoord implements Mapper.
func (m VectorOnlyMapper) MapCoord(_ topology.NodeID, vec vivaldi.Coord, exclude map[topology.NodeID]bool) (topology.NodeID, MapStats, error) {
	space := m.Source.Space()
	var buf [idealDims]float64
	target := space.AppendIdealPoint(buf[:0], vec)

	ix := m.Source.CostIndex()
	id, _, found := ix.NearestVector(target, excludeFunc(exclude))
	if !found {
		return 0, MapStats{}, fmt.Errorf("placement: no candidate nodes (all excluded)")
	}
	return topology.NodeID(id), MapStats{
		Candidates: admissible(ix.Len(), exclude),
		Error:      ix.Distance(id, target),
	}, nil
}
