package dht

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/topology"
)

// Entry is one published cost-space coordinate: overlay node `Node`
// currently sits at `Point`, stored under scaled Hilbert key `Key`.
type Entry struct {
	Key   ID
	Node  topology.NodeID
	Point costspace.Point
}

// Catalog maps cost-space coordinates to overlay nodes through the ring.
// Nodes publish their coordinate; queries find the nodes nearest to a
// target coordinate, or all nodes within a cost-space radius, by walking
// the ring arcs around the target's Hilbert key.
//
// Query methods are safe for concurrent use with each other (they are
// pure reads); publishes and ring membership changes must not run
// concurrently with queries.
type Catalog struct {
	ring   *Ring
	space  *costspace.Space
	curve  hilbert.Curve
	bounds costspace.Bounds

	published map[topology.NodeID]Entry
	// storedAt remembers which peer holds each node's entry, making the
	// republish removal O(1) instead of a scan over all peers. Ring
	// churn can migrate entries without the catalog seeing it, so
	// removal falls back to the key's current owner (where migrations
	// deposit entries) and finally a full scan.
	storedAt map[topology.NodeID]*Peer

	// version counts published-set mutations; the exact-query k-NN
	// index is stamped with it and lazily rebuilt (or patched, for
	// coordinate moves of an unchanged node set) when it falls behind —
	// the same invalidation discipline as the optimizer snapshot index.
	version uint64
	exact   atomic.Pointer[exactIndex]
}

// exactIndex is the lazily built spatial index behind ExactNearest /
// ExactWithinRadius: an exact k-NN tree over the published points plus
// the id→node mapping (ids are positions in the node-sorted published
// set, so (distance, id) ordering equals (distance, node) ordering).
type exactIndex struct {
	ix    *costindex.Index
	nodes []topology.NodeID
}

// NewCatalog builds a catalog over the ring for the given cost space.
// curve must span space.Dims() dimensions; bounds defines the coordinate
// region quantized onto the Hilbert grid.
func NewCatalog(ring *Ring, space *costspace.Space, curve hilbert.Curve, bounds costspace.Bounds) (*Catalog, error) {
	if int(curve.Dims()) != space.Dims() {
		return nil, fmt.Errorf("dht: curve spans %d dims, space has %d", curve.Dims(), space.Dims())
	}
	if len(bounds.Min) != space.Dims() || len(bounds.Max) != space.Dims() {
		return nil, fmt.Errorf("dht: bounds dimensionality %d/%d does not match space %d",
			len(bounds.Min), len(bounds.Max), space.Dims())
	}
	return &Catalog{
		ring:      ring,
		space:     space,
		curve:     curve,
		bounds:    bounds,
		published: make(map[topology.NodeID]Entry),
		storedAt:  make(map[topology.NodeID]*Peer),
	}, nil
}

// Ring returns the underlying ring.
func (c *Catalog) Ring() *Ring { return c.ring }

// Space returns the cost space the catalog indexes.
func (c *Catalog) Space() *costspace.Space { return c.space }

// KeyOf returns the scaled Hilbert key for a cost-space point. Hilbert
// keys occupy the top curve.KeyBits() bits of the 64-bit identifier
// circle so that Hilbert ordering is preserved under ring ordering. It
// runs per publish, per query and per plan-cache key derivation, and
// quantizes on its own stack (spaces beyond eight dimensions grow the
// buffer on the heap).
func (c *Catalog) KeyOf(p costspace.Point) ID {
	var buf [8]uint32
	cells := c.bounds.QuantizeInto(buf[:0], p, c.curve.Bits())
	return ID(c.curve.MustEncodeInPlace(cells) << (64 - c.curve.KeyBits()))
}

// CellCenter returns the cost-space point at the center of the Hilbert
// cell for the given scaled key.
func (c *Catalog) CellCenter(k ID) (costspace.Point, error) {
	raw := uint64(k) >> (64 - c.curve.KeyBits())
	cells, err := c.curve.Decode(raw)
	if err != nil {
		return nil, err
	}
	return c.bounds.Dequantize(cells, c.curve.Bits()), nil
}

// Publish records the coordinate of node in the DHT, replacing any prior
// entry for the same node. It returns the entry's key.
func (c *Catalog) Publish(node topology.NodeID, p costspace.Point) (ID, error) {
	if len(p) != c.space.Dims() {
		return 0, fmt.Errorf("dht: publish %d-dim point in %d-dim space", len(p), c.space.Dims())
	}
	if c.ring.NumPeers() == 0 {
		return 0, fmt.Errorf("dht: publish on empty ring")
	}
	_, republish := c.published[node]
	if republish {
		c.removeStored(c.published[node])
	}
	e := Entry{Key: c.KeyOf(p), Node: node, Point: p.Clone()}
	owner := c.ring.Owner(e.Key)
	owner.storeAdd(e)
	c.published[node] = e
	c.storedAt[node] = owner
	c.version++
	c.patchExact(node, e.Point, republish)
	return e.Key, nil
}

// patchExact keeps an already-built exact index valid across a
// republish that moved one node's coordinate; any other mutation drops
// it for a lazy rebuild.
func (c *Catalog) patchExact(node topology.NodeID, p costspace.Point, republish bool) {
	ex := c.exact.Load()
	if ex == nil {
		return
	}
	if !republish || ex.ix.Version() != c.version-1 {
		c.exact.Store(nil)
		return
	}
	i := sort.Search(len(ex.nodes), func(j int) bool { return ex.nodes[j] >= node })
	if i >= len(ex.nodes) || ex.nodes[i] != node {
		c.exact.Store(nil)
		return
	}
	if nx, ok := ex.ix.WithPoint(int32(i), p, c.version); ok {
		c.exact.Store(&exactIndex{ix: nx, nodes: ex.nodes})
	} else {
		c.exact.Store(nil)
	}
}

// InvalidateExactIndex drops the exact-query index so the next exact
// query rebuilds it from scratch. Callers about to republish many (or
// all) coordinates should invalidate first: it spares the per-publish
// patch bookkeeping for an index that is doomed anyway.
func (c *Catalog) InvalidateExactIndex() {
	c.exact.Store(nil)
}

// Unpublish removes the node's catalog entry if present.
func (c *Catalog) Unpublish(node topology.NodeID) {
	if old, ok := c.published[node]; ok {
		c.removeStored(old)
		delete(c.published, node)
		delete(c.storedAt, node)
		c.version++
		c.exact.Store(nil)
	}
}

// removeStored deletes the stored copy of e from the peer holding it:
// the recorded storing peer in O(1), or — when ring churn migrated the
// entry behind the catalog's back — the key's current owner (join/leave
// migrations always deposit entries on the new owner). The full scan
// remains as a defensive last resort.
func (c *Catalog) removeStored(e Entry) {
	if p, ok := c.storedAt[e.Node]; ok && p.storeRemove(e.Key, e.Node) {
		return
	}
	if c.ring.NumPeers() > 0 && c.ring.Owner(e.Key).storeRemove(e.Key, e.Node) {
		return
	}
	for _, p := range c.ring.peers {
		if p.storeRemove(e.Key, e.Node) {
			return
		}
	}
}

// NumPublished returns the number of nodes with a published coordinate.
func (c *Catalog) NumPublished() int { return len(c.published) }

// Mutations returns how many times the catalog's published set changed
// (Publish or Unpublish) since construction. Queries never move it —
// the counter instruments guards asserting that pure read paths (e.g.
// re-optimization planning) perform zero republishes.
func (c *Catalog) Mutations() uint64 { return c.version }

// PublishedEntry returns the current entry for a node.
func (c *Catalog) PublishedEntry(node topology.NodeID) (Entry, bool) {
	e, ok := c.published[node]
	return e, ok
}

// QueryResult carries the outcome of a catalog query along with its DHT
// routing cost.
type QueryResult struct {
	Entries     []Entry
	LookupHops  int // hops for the initial key lookup
	PeersWalked int // ring peers visited while collecting entries
}

// rankedEntry pairs an entry with its precomputed distance to the query
// target, so ranking sorts on a key instead of re-deriving distances
// inside the comparator.
type rankedEntry struct {
	dist float64
	e    Entry
}

// nearCand is one candidate in the bounded nearest-n selection: the
// precomputed sort key plus a pointer to the stored entry, so selection
// shifts 24-byte keys instead of copying entries.
type nearCand struct {
	dist float64
	node topology.NodeID
	e    *Entry
}

// queryScratch holds the reusable buffers of one catalog query.
type queryScratch struct {
	entries []Entry
	ranked  []rankedEntry
	cands   []nearCand
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// rankByDistance sorts entries by (distance to target, node id),
// computing each distance once.
func (c *Catalog) rankByDistance(sc *queryScratch, target costspace.Point, entries []Entry) []rankedEntry {
	ranked := sc.ranked[:0]
	for _, e := range entries {
		ranked = append(ranked, rankedEntry{dist: c.space.Distance(target, e.Point), e: e})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].dist != ranked[j].dist {
			return ranked[i].dist < ranked[j].dist
		}
		return ranked[i].e.Node < ranked[j].e.Node
	})
	sc.ranked = ranked
	return ranked
}

// oversample is how many entries a nearest-n walk visits before it
// stops: Hilbert order only approximates cost-space order, so the walk
// looks at 4n entries, at least 16, and ranks by true distance.
func oversample(n int) int {
	return max(4*n, 16)
}

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
	hops, walked, err := c.walkArcs(startNode, target, maxScan, func(p *Peer) bool {
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

// Nearest is the outcome of NearestAdmissible.
type Nearest struct {
	// Found is false when the walk met no admissible entry; Node and
	// Distance are then zero.
	Found    bool
	Node     topology.NodeID
	Distance float64 // full-space distance from the target to Node's entry
	// Candidates is min(n, entries the walk visited): the length of the
	// list NearestNodes would have ranked.
	Candidates  int
	LookupHops  int // hops for the initial key lookup
	PeersWalked int // ring peers visited while scanning entries
}

// cutSlack widens the squared-distance cut of NearestAdmissible. An
// entry is skipped unseen only when its squared distance exceeds the
// best one by this relative margin, four orders of magnitude above
// float64 resolution: its rounded square root is then strictly greater
// than the best distance, so it could neither win nor tie. Everything
// closer takes the exact (distance, node) comparison.
const cutSlack = 1 + 1e-12

// NearestAdmissible returns the entry nearest to target, under the
// (distance, node) order of NearestNodes, among the entries the same
// walk visits — same key lookup from startNode, same oversample of
// max(4n, 16) entries, same maxScan — whose node exclude does not map to
// true. For n > len(exclude) that is the first admissible entry of
// NearestNodes(startNode, target, n, maxScan): fewer than n entries can
// rank ahead of the nearest admissible one, so it is always on that
// list. This is the mapping primitive: it keeps one running minimum
// where the ranked query maintains n, and compares squared distances
// (summed in Space.Distance's order) before it takes a square root.
func (c *Catalog) NearestAdmissible(startNode topology.NodeID, target costspace.Point, n, maxScan int, exclude map[topology.NodeID]bool) (Nearest, error) {
	if n < 1 {
		return Nearest{}, fmt.Errorf("dht: NearestAdmissible n = %d, need >= 1", n)
	}
	want := oversample(n)
	var best Nearest
	cut := math.Inf(1)
	seen := 0
	hops, walked, err := c.walkArcs(startNode, target, maxScan, func(p *Peer) bool {
		for i := range p.flat {
			e := &p.flat[i]
			pt := e.Point[:len(target)]
			var ss float64
			for k, t := range target {
				d := t - pt[k]
				ss += d * d
			}
			if ss > cut {
				continue
			}
			d := math.Sqrt(ss)
			if best.Found && (d > best.Distance || (d == best.Distance && e.Node >= best.Node)) {
				continue
			}
			if exclude[e.Node] {
				continue
			}
			best.Found, best.Node, best.Distance = true, e.Node, d
			cut = ss * cutSlack
		}
		seen += len(p.flat)
		return seen >= want
	})
	if err != nil {
		return Nearest{}, err
	}
	best.Candidates = min(n, seen)
	best.LookupHops, best.PeersWalked = hops, walked
	return best, nil
}

// WithinRadius returns all published entries within cost-space distance r
// of target that the ring walk encounters, visiting at most maxScan
// peers. With maxScan >= ring size the result is exact; smaller values
// trade recall for lookup cost, which is precisely the pruning knob of
// the paper's §3.4.
func (c *Catalog) WithinRadius(startNode topology.NodeID, target costspace.Point, r float64, maxScan int) (QueryResult, error) {
	if r < 0 {
		return QueryResult{}, fmt.Errorf("dht: WithinRadius r = %v, need >= 0", r)
	}
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	res, err := c.collect(startNode, target, maxScan, sc.entries[:0], func([]Entry) bool { return false })
	if err != nil {
		return QueryResult{}, err
	}
	sc.entries = res.Entries[:0]
	ranked := c.rankByDistance(sc, target, res.Entries)
	var within []Entry
	for _, re := range ranked {
		if re.dist > r {
			break // ranked ascending: nothing farther qualifies
		}
		within = append(within, re.e)
	}
	res.Entries = within
	return res, nil
}

// collect performs the key lookup and bidirectional ring walk, gathering
// entries into buf until `enough` reports true or maxScan peers were
// visited.
func (c *Catalog) collect(startNode topology.NodeID, target costspace.Point, maxScan int, buf []Entry, enough func([]Entry) bool) (QueryResult, error) {
	out := buf[:0]
	hops, walked, err := c.walkArcs(startNode, target, maxScan, func(p *Peer) bool {
		out = append(out, p.flat...)
		return enough(out)
	})
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Entries: out, LookupHops: hops, PeersWalked: walked}, nil
}

// walkArcs performs the key lookup and bidirectional ring walk around
// the target's Hilbert key, calling visit for each peer until visit
// reports it has enough or maxScan peers were visited. It returns the
// lookup hop count and the number of peers visited.
func (c *Catalog) walkArcs(startNode topology.NodeID, target costspace.Point, maxScan int, visit func(*Peer) bool) (lookupHops, walked int, err error) {
	if len(target) != c.space.Dims() {
		return 0, 0, fmt.Errorf("dht: query %d-dim point in %d-dim space", len(target), c.space.Dims())
	}
	if c.ring.NumPeers() == 0 {
		return 0, 0, fmt.Errorf("dht: query on empty ring")
	}
	if maxScan < 1 {
		maxScan = 1
	}
	key := c.KeyOf(target)
	owner, hops, err := c.ring.Lookup(startNode, key)
	if err != nil {
		return 0, 0, err
	}
	done := visit(owner)
	walked = 1
	fwd, back := owner, owner
	for walked < maxScan && walked < c.ring.NumPeers() && !done {
		fwd = c.ring.successorAfter(fwd)
		if fwd == back {
			break
		}
		done = visit(fwd)
		walked++
		if walked >= maxScan || walked >= c.ring.NumPeers() || done {
			break
		}
		back = c.ring.predecessorOf(back)
		if back == fwd {
			break
		}
		done = visit(back)
		walked++
	}
	return hops, walked, nil
}

// exactIdx returns the version-current exact index, rebuilding lazily
// after mutations.
func (c *Catalog) exactIdx() *exactIndex {
	ex := c.exact.Load()
	if ex != nil && ex.ix.Version() == c.version {
		return ex
	}
	nodes := make([]topology.NodeID, 0, len(c.published))
	for n := range c.published {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	pts := make([]costspace.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = c.published[n].Point
	}
	ex = &exactIndex{ix: costindex.Build(c.space, pts, c.version), nodes: nodes}
	c.exact.Store(ex)
	return ex
}

// ExactNearest returns the n published entries nearest to target — the
// oracle against which the DHT walk's mapping error is measured (Figure
// 3 / experiment X3). It answers from the catalog's exact k-NN index
// rather than scanning every entry; results are identical to ranking a
// full scan by (distance, node).
func (c *Catalog) ExactNearest(target costspace.Point, n int) []Entry {
	ex := c.exactIdx()
	nbs := ex.ix.KNearest(target, n, nil, nil)
	out := make([]Entry, len(nbs))
	for i, nb := range nbs {
		out[i] = c.published[ex.nodes[nb.ID]]
	}
	return out
}

// ExactWithinRadius returns all published entries within r of target,
// nearest first, from the exact k-NN index.
func (c *Catalog) ExactWithinRadius(target costspace.Point, r float64) []Entry {
	ex := c.exactIdx()
	nbs := ex.ix.WithinRadius(target, r, nil, nil)
	if len(nbs) == 0 {
		return nil
	}
	out := make([]Entry, len(nbs))
	for i, nb := range nbs {
		out[i] = c.published[ex.nodes[nb.ID]]
	}
	return out
}
