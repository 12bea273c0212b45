package dht

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
)

// The ranked "closest n nodes" query that Catalog.NearestAdmissible
// replaced on the mapping path, kept as it was as the reference the
// tests and FuzzNearestAdmissibleMatchesRanked hold the one-pass query
// to; and the linear scans the tests use as their exact oracle.

// QueryResult carries the outcome of a catalog query along with its DHT
// routing cost.
type QueryResult struct {
	Entries     []Entry
	LookupHops  int // hops for the initial key lookup
	PeersWalked int // ring peers visited while collecting entries
}

// nearCand is one candidate in the bounded nearest-n selection: the
// precomputed sort key plus a pointer to the stored entry, so selection
// shifts 24-byte keys instead of copying entries.
type nearCand struct {
	dist float64
	node topology.NodeID
	e    *Entry
}

// queryScratch holds the reusable buffer of one ranked query.
type queryScratch struct {
	cands []nearCand
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// NearestNodes returns up to n published entries nearest to target in
// full cost-space distance. The search starts with a DHT lookup of the
// target's Hilbert key from startNode and then walks ring arcs outward in
// both directions, visiting at most maxScan peers, oversampling before
// ranking by true distance. This mirrors the paper's "look up the closest
// n nodes" primitive.
func (c *Catalog) NearestNodes(startNode topology.NodeID, target costspace.Point, n, maxScan int) (QueryResult, error) {
	return c.NearestNodesAppend(startNode, target, n, maxScan, nil)
}

// NearestNodesAppend is NearestNodes writing the result entries into
// dst's backing array (dst's length is ignored) — the allocation-free
// variant for callers that reuse a candidate buffer.
//
// Ranking is a bounded insertion over precomputed (distance, node) keys
// — the n best of the oversample maintained in order as the walk visits
// entries — which selects exactly the prefix a full sort would, without
// materializing or sorting the oversample.
func (c *Catalog) NearestNodesAppend(startNode topology.NodeID, target costspace.Point, n, maxScan int, dst []Entry) (QueryResult, error) {
	if n < 1 {
		return QueryResult{}, fmt.Errorf("dht: NearestNodes n = %d, need >= 1", n)
	}
	want := oversample(n)
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	top := sc.cands[:0]
	seen := 0
	hops, walked, err := lookupWalk(c, startNode, target, maxScan, func(p *Peer) bool {
		for i := range p.flat {
			e := &p.flat[i]
			d := c.space.Distance(target, e.Point)
			if len(top) == n {
				worst := top[len(top)-1]
				if d > worst.dist || (d == worst.dist && e.Node >= worst.node) {
					continue
				}
			}
			j := len(top)
			if len(top) < n {
				top = append(top, nearCand{})
			} else {
				j--
			}
			for j > 0 && (top[j-1].dist > d || (top[j-1].dist == d && top[j-1].node > e.Node)) {
				top[j] = top[j-1]
				j--
			}
			top[j] = nearCand{dist: d, node: e.Node, e: e}
		}
		seen += len(p.flat)
		return seen >= want
	})
	sc.cands = top[:0]
	if err != nil {
		return QueryResult{}, err
	}
	out := dst[:0]
	for _, cand := range top {
		out = append(out, *cand.e)
	}
	return QueryResult{Entries: out, LookupHops: hops, PeersWalked: walked}, nil
}

// lookupWalk is the walk every catalog query makes: the key lookup
// from start, then the walk around the key's owner.
func lookupWalk(c *Catalog, start topology.NodeID, target costspace.Point, maxScan int, visit func(*Peer) bool) (hops, walked int, err error) {
	if len(target) != c.space.Dims() {
		return 0, 0, fmt.Errorf("dht: query %d-dim point in %d-dim space", len(target), c.space.Dims())
	}
	if c.ring.NumPeers() == 0 {
		return 0, 0, fmt.Errorf("dht: query on empty ring")
	}
	owner, hops, err := c.ring.Lookup(start, c.KeyOf(target))
	if err != nil {
		return 0, 0, err
	}
	return hops, c.walkArcs(owner, maxScan, visit), nil
}

// walkEntries gathers the entries of the peers a walk of at most maxScan
// peers around target's key visits, stopping once it holds want of them
// (never, for want <= 0), with the walk's hop and peer counts.
func walkEntries(c *Catalog, start topology.NodeID, target costspace.Point, maxScan, want int) (QueryResult, error) {
	var out []Entry
	hops, walked, err := lookupWalk(c, start, target, maxScan, func(p *Peer) bool {
		out = append(out, p.flat...)
		return want > 0 && len(out) >= want
	})
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Entries: out, LookupHops: hops, PeersWalked: walked}, nil
}

// scanNearest ranks every published entry by (distance to target, node)
// and returns the first n: the exact answer no walk can beat.
func scanNearest(c *Catalog, target costspace.Point, n int) []Entry {
	all := make([]Entry, 0, len(c.published))
	for _, e := range c.published {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := c.space.Distance(target, all[i].Point), c.space.Distance(target, all[j].Point)
		if di != dj {
			return di < dj
		}
		return all[i].Node < all[j].Node
	})
	return all[:min(n, len(all))]
}
