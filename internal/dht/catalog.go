package dht

import (
	"fmt"
	"math"

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
	// storedAt remembers which peer holds each node's entry, so the
	// republish removal scans that one peer's entries instead of every
	// peer's. Ring churn can migrate entries without the catalog seeing
	// it, so removal falls back to the key's current owner (where
	// migrations deposit entries) and finally a full scan.
	storedAt map[topology.NodeID]*Peer

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
	c.storedAt[node] = owner
	c.version++
	return e.Key, nil
}

// Unpublish removes the node's catalog entry if present.
func (c *Catalog) Unpublish(node topology.NodeID) {
	if old, ok := c.published[node]; ok {
		c.removeStored(old)
		delete(c.published, node)
		delete(c.storedAt, node)
		c.version++
	}
}

// removeStored deletes the stored copy of e from the peer holding it:
// the recorded storing peer first, or — when ring churn migrated the
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
