package dht

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// Entry is one published cost-space coordinate: overlay node `Node`
// currently sits at `Point`, stored under scaled Hilbert key `Key`.
type Entry struct {
	Key   ID
	Node  topology.NodeID
	Point costspace.Point
}

// Catalog maps cost-space coordinates to overlay nodes through the ring.
// Nodes publish their coordinate; queries find the node nearest to a
// target coordinate by walking the ring arcs around the target's
// Hilbert key.
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

	// version counts published-set mutations (see Mutations).
	version uint64
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
	}, nil
}

// Frame returns the Hilbert curve and bounds that key the points of a
// cost space: 16 bits per dimension, or fewer when dims × bits would
// exceed 64, over the bounding box of pts and of pts[0] at full load
// (every scalar at 1.5, so republished points stay in range), widened
// by a 5 % margin. It is the one frame of the SBON: the node catalog and
// the optimizer's shard regions both key by it.
func Frame(space *costspace.Space, pts []costspace.Point) (hilbert.Curve, costspace.Bounds, error) {
	if len(pts) == 0 {
		return hilbert.Curve{}, costspace.Bounds{}, fmt.Errorf("dht: frame over no points")
	}
	dims, bits := uint(space.Dims()), uint(16)
	for dims*bits > 64 {
		bits--
	}
	curve, err := hilbert.New(dims, bits)
	if err != nil {
		return hilbert.Curve{}, costspace.Bounds{}, err
	}
	full := make([]float64, len(space.Scalars))
	for i := range full {
		full[i] = 1.5
	}
	all := make([]costspace.Point, 0, len(pts)+1)
	all = append(all, pts...)
	all = append(all, space.NewPoint(vivaldi.Coord(pts[0][:space.VectorDims]), full))
	bounds, err := costspace.ComputeBounds(all, 0.05)
	return curve, bounds, err
}

// NewNodeCatalog builds a ring of nodes 0..len(pts)-1 and a catalog over
// it in Frame(space, pts), with pts[i] published for node i. It leaves
// what Publish for each node in turn leaves, in one sorted pass: every
// peer's entries in first-coordinate order, ties by descending node (the
// last one published goes first), and every point cloned into one
// shared array.
func NewNodeCatalog(space *costspace.Space, pts []costspace.Point) (*Catalog, error) {
	curve, bounds, err := Frame(space, pts)
	if err != nil {
		return nil, err
	}
	ring, err := NewRingOf(len(pts))
	if err != nil {
		return nil, err
	}
	c, err := NewCatalog(ring, space, curve, bounds)
	if err != nil {
		return nil, err
	}
	type owned struct {
		owner int
		Entry
	}
	dims := space.Dims()
	es := make([]owned, len(pts))
	for i, p := range pts {
		if len(p) != dims {
			return nil, fmt.Errorf("dht: publish %d-dim point in %d-dim space", len(p), dims)
		}
		k := c.KeyOf(p)
		es[i] = owned{ring.successor(k).idx, Entry{Key: k, Node: topology.NodeID(i), Point: p}}
	}
	slices.SortFunc(es, func(a, b owned) int {
		return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.Point[0], b.Point[0]), cmp.Compare(b.Node, a.Node))
	})
	// Each peer's entries get room to grow, as Publish's appends would
	// have left it: their count rounded up to a power of two.
	room := 0
	for i, j := 0, 0; i < len(es); i = j {
		for j = i; j < len(es) && es[j].owner == es[i].owner; j++ {
		}
		room += 1 << bits.Len(uint(j-i-1))
	}
	flat, coords := make([]Entry, room), make([]float64, len(pts)*dims)
	c.published = make(map[topology.NodeID]Entry, len(pts))
	for i, j := 0, 0; i < len(es); i = j {
		for j = i; j < len(es) && es[j].owner == es[i].owner; j++ {
		}
		k := 1 << bits.Len(uint(j-i-1))
		p := ring.peers[es[i].owner]
		p.flat, flat = flat[:j-i:k], flat[k:]
		for m := range p.flat {
			e := es[i+m].Entry
			e.Point, coords = coords[:dims:dims], coords[dims:]
			copy(e.Point, pts[e.Node])
			p.flat[m] = e
			c.published[e.Node] = e
		}
	}
	c.version = uint64(len(pts))
	return c, nil
}

// Ring returns the underlying ring.
func (c *Catalog) Ring() *Ring { return c.ring }

// Space returns the cost space the catalog indexes.
func (c *Catalog) Space() *costspace.Space { return c.space }

// Curve returns the Hilbert curve the catalog keys points with.
func (c *Catalog) Curve() hilbert.Curve { return c.curve }

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

// Publish records the coordinate of node in the DHT, replacing any prior
// entry for the same node. It returns the entry's key. The first publish
// of a node clones p; a republish copies p into that clone, allocating
// nothing, so an entry's Point must not be held across a republish.
func (c *Catalog) Publish(node topology.NodeID, p costspace.Point) (ID, error) {
	if len(p) != c.space.Dims() {
		return 0, fmt.Errorf("dht: publish %d-dim point in %d-dim space", len(p), c.space.Dims())
	}
	if c.ring.NumPeers() == 0 {
		return 0, fmt.Errorf("dht: publish on empty ring")
	}
	e := Entry{Key: c.KeyOf(p), Node: node}
	if old, republish := c.published[node]; republish {
		c.removeStored(old)
		e.Point = old.Point
		copy(e.Point, p)
	} else {
		e.Point = p.Clone()
	}
	owner := c.ring.Owner(e.Key)
	owner.storeAdd(e)
	c.published[node] = e
	c.version++
	return e.Key, nil
}

// Unpublish removes the node's catalog entry if present.
func (c *Catalog) Unpublish(node topology.NodeID) {
	if old, ok := c.published[node]; ok {
		c.removeStored(old)
		delete(c.published, node)
		c.version++
	}
}

// RepublishAll is Publish(n, pts[n]) for every n in nodes that the
// catalog lists, in one pass over the ring: it re-keys the entries, then
// moves each stored entry whose owner changed. The catalog ends as
// per-node Publish leaves it, up to the order of first-coordinate ties.
// A node the catalog does not list stays unpublished (crash repair
// retired it; Rejoin brings it back). It publishes node by node when a
// published entry is stored nowhere (a crash not yet repaired) or a
// point has the wrong dimensionality, which Publish rejects.
func (c *Catalog) RepublishAll(nodes []topology.NodeID, pts []costspace.Point) error {
	stored := 0
	for _, p := range c.ring.peers {
		stored += len(p.flat)
	}
	for _, n := range nodes {
		if _, ok := c.published[n]; ok && len(pts[n]) != c.space.Dims() {
			stored = -1
		}
	}
	if stored != len(c.published) {
		for _, n := range nodes {
			if _, ok := c.published[n]; !ok {
				continue
			}
			if _, err := c.Publish(n, pts[n]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range nodes {
		e, ok := c.published[n]
		if !ok {
			continue
		}
		copy(e.Point, pts[n])
		e.Key = c.KeyOf(e.Point)
		c.published[n] = e
		c.version++
	}
	for _, p := range c.ring.peers {
		kept := p.flat[:0]
		for _, e := range p.flat {
			cur := c.published[e.Node]
			if cur.Key == e.Key {
				kept = append(kept, cur)
			} else if owner := c.ring.Owner(cur.Key); owner == p {
				kept = append(kept, cur)
			} else {
				owner.storeAdd(cur)
			}
		}
		clear(p.flat[len(kept):])
		p.flat = kept
		sortEntries(kept)
	}
	return nil
}

// removeStored deletes the stored copy of e from the peer holding it:
// the key's current owner, since join and leave migrations deposit
// entries there, or, as a defensive last resort, any peer.
func (c *Catalog) removeStored(e Entry) {
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

// oversample is how many entries a nearest-n walk visits before it
// stops: Hilbert order only approximates cost-space order, so the walk
// looks at 4n entries, at least 16, and ranks by true distance.
func oversample(n int) int {
	return max(4*n, 16)
}

// Nearest is the outcome of NearestAdmissible.
type Nearest struct {
	// Found is false when the walk met no admissible entry; Node and
	// Distance are then zero.
	Found    bool
	Node     topology.NodeID
	Distance float64 // full-space distance from the target to Node's entry
	// Candidates is min(n, entries the walk visited): the length of the
	// list the ranked reference query would have returned.
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
// (distance, node) order of the ranked "closest n nodes" query (the
// tests' NearestNodes), among the entries the same walk visits — same
// key lookup from startNode, same oversample of max(4n, 16) entries,
// same maxScan — whose node exclude does not map to true. For
// n > len(exclude) that is the first admissible entry of
// NearestNodes(startNode, target, n, maxScan): fewer than n entries can
// rank ahead of the nearest admissible one, so it is always on that
// list. This is the mapping primitive: it keeps one running minimum
// where the ranked query maintains n, and compares squared distances
// (summed in Space.Distance's order) before it takes a square root.
func (c *Catalog) NearestAdmissible(startNode topology.NodeID, target costspace.Point, n, maxScan int, exclude map[topology.NodeID]bool) (Nearest, error) {
	if n < 1 {
		return Nearest{}, fmt.Errorf("dht: NearestAdmissible n = %d, need >= 1", n)
	}
	if len(target) != c.space.Dims() {
		return Nearest{}, fmt.Errorf("dht: query %d-dim point in %d-dim space", len(target), c.space.Dims())
	}
	if c.ring.NumPeers() == 0 {
		return Nearest{}, fmt.Errorf("dht: query on empty ring")
	}
	owner, hops, err := c.ring.Lookup(startNode, c.KeyOf(target))
	if err != nil {
		return Nearest{}, err
	}
	best := c.NearestFrom(owner, target, n, maxScan, exclude)
	best.LookupHops = hops
	return best, nil
}

// NearestFrom is NearestAdmissible's walk from owner, the peer owning
// target's key, without the lookup (no LookupHops), for n >= 1 and a
// target of the catalog's dimensionality.
// It scans each peer outward from target's first coordinate, as the
// package comment says.
func (c *Catalog) NearestFrom(owner *Peer, target costspace.Point, n, maxScan int, exclude map[topology.NodeID]bool) Nearest {
	want := oversample(n)
	var best Nearest
	cut := math.Inf(1)
	seen := 0
	// offer ranks e and reports whether the scan goes on past it.
	offer := func(e *Entry) bool {
		pt := e.Point[:len(target)]
		d0 := target[0] - pt[0]
		ss := d0 * d0
		if ss > cut {
			return false
		}
		for k := 1; k < len(target); k++ {
			d := target[k] - pt[k]
			ss += d * d
		}
		if ss > cut {
			return true
		}
		d := math.Sqrt(ss)
		if !(best.Found && (d > best.Distance || (d == best.Distance && e.Node >= best.Node))) && !exclude[e.Node] {
			best.Found, best.Node, best.Distance = true, e.Node, d
			cut = ss * cutSlack
		}
		return true
	}
	best.PeersWalked = c.walkArcs(owner, maxScan, func(p *Peer) bool {
		mid := p.from(target[0])
		for i := mid; i < len(p.flat) && offer(&p.flat[i]); i++ {
		}
		for i := mid - 1; i >= 0 && offer(&p.flat[i]); i-- {
		}
		seen += len(p.flat)
		return seen >= want
	})
	best.Candidates = min(n, seen)
	return best
}

// walkArcs walks the ring in both directions from owner, the peer
// owning a query's Hilbert key, calling visit for each peer until visit
// reports it has enough or maxScan peers were visited. It returns the
// number of peers visited.
func (c *Catalog) walkArcs(owner *Peer, maxScan int, visit func(*Peer) bool) (walked int) {
	if maxScan < 1 {
		maxScan = 1
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
	return walked
}
