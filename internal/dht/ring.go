// Package dht implements a Chord-style distributed hash table used as the
// decentralized catalog of the paper's physical-mapping step (§3.2): every
// SBON node publishes its cost-space coordinate under a Hilbert-curve key,
// and a lookup of any coordinate returns nodes whose published coordinates
// are closest to it.
//
// The ring is simulated in-process but preserves the structural properties
// the paper relies on: 64-bit identifier circle, successor ownership of
// keys, finger tables giving O(log N) lookup hops, and key locality — the
// Hilbert keys of nearby cost-space points land on nearby ring arcs, so a
// short ring walk around a lookup target enumerates a compact cost-space
// region (used for nearest-node mapping).
//
// A finger table is stored compressed. Finger i of a peer owns id + 2^i,
// and every target that falls short of the next peer's id is owned by
// that next peer, so a peer whose successor lies d ids ahead keeps only
// levels bits.Len64(d) and up — about log₂N of the 64 in a ring of N —
// and Ring.finger answers the levels below from the peer's slice
// position. Only a peer's predecessor sees its successor change, so a
// join, leave or crash rebuilds that one table and patches the stored
// levels of the peers on each level's affected arc.
//
// Every catalog query is one Hilbert key, one Ring.Lookup and one
// bidirectional walk (Catalog.walkArcs) with a visitor over the entries
// of each peer it reaches. The paper's "closest n nodes" primitive ranks
// the n nearest of them; it lives on in the tests as NearestNodes
// (reference_test.go). NearestAdmissible is what physical mapping runs
// once per unpinned operator of every candidate plan: the mapper only
// ever takes the first non-excluded entry of that ranking, which is the
// nearest admissible entry the walk saw, so the visitor keeps one
// running minimum instead of a ranked list, compares squared distances
// and takes a square root only for an entry that may replace it. Each
// peer keeps its entries sorted by first coordinate, so the visitor
// starts at the target's and scans outward, stopping a direction once
// the first term of the squared distance alone exceeds the best: a sum
// of squares never falls below its first term, so every entry past that
// point is one a full scan rejects too. Same walk, same stop, same
// (distance, node) order: the two agree to the bit, and the tests and
// the fuzz target hold them to it.
// Queries are pure reads on their own stacks and may run concurrently;
// nothing mutable hangs off the Catalog for them.
package dht

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"

	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// ID is a position on the 64-bit identifier circle.
type ID uint64

// Peer is one DHT participant. Peers correspond 1:1 to overlay nodes.
type Peer struct {
	id   ID
	node topology.NodeID
	// idx is the peer's position in the ring's id-sorted peer slice,
	// maintained on join/leave so ring-walk neighbor steps are O(1)
	// instead of a binary search per step.
	idx int
	// fingers holds the top levels of the fully stabilized Chord finger
	// table: fingers[k] is finger 64 − len(fingers) + k, the peer owning
	// id + 2^i for that level i. The levels below are all the successor
	// (see Ring.finger).
	fingers []*Peer
	// flat holds the catalog entries this peer owns, sorted by their
	// point's first coordinate, ascending: a walk starts at the target's
	// and scans outward only while an entry could still win.
	flat []Entry
}

// storeAdd records e in the peer's entries, in order.
func (p *Peer) storeAdd(e Entry) {
	p.flat = slices.Insert(p.flat, p.from(e.Point[0]), e)
}

// from returns the index of the first entry whose first coordinate is
// not below x.
func (p *Peer) from(x float64) int {
	return sort.Search(len(p.flat), func(i int) bool { return !(p.flat[i].Point[0] < x) })
}

// sortEntries restores the order of a refilled entry list.
func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Point[0], b.Point[0]) })
}

// storeRemove deletes the entry for (key, node), reporting whether it
// was present. The entries after it close the gap, keeping the order.
func (p *Peer) storeRemove(key ID, node topology.NodeID) bool {
	i := p.find(key, node)
	if i < 0 {
		return false
	}
	p.flat = slices.Delete(p.flat, i, i+1)
	return true
}

// find returns the index of the entry for (key, node), or -1.
func (p *Peer) find(key ID, node topology.NodeID) int {
	for i := range p.flat {
		if p.flat[i].Node == node && p.flat[i].Key == key {
			return i
		}
	}
	return -1
}

// Entries returns the peer's stored entries as one slice, in first
// coordinate order. The caller must not modify it.
func (p *Peer) Entries() []Entry { return p.flat }

// ID returns the peer's ring identifier.
func (p *Peer) ID() ID { return p.id }

// Node returns the overlay node this peer runs on.
func (p *Peer) Node() topology.NodeID { return p.node }

// PeerID derives the ring identifier for an overlay node, by hashing its
// ID (FNV-64a over a fixed-width encoding).
func PeerID(n topology.NodeID) ID {
	h := fnv.New64a()
	var buf [8]byte
	v := uint64(n)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte("sbon-peer"))
	return ID(h.Sum64())
}

// Ring is the set of DHT peers plus routing state. It is not safe for
// concurrent mutation; the simulator drives it from one goroutine.
type Ring struct {
	peers   []*Peer // sorted by id
	byNode  map[topology.NodeID]*Peer
	changes uint64 // see Changes

	// faults is the installed RPC fault configuration (zero value: no
	// injection); fstats accumulates RPC outcomes under it.
	faults RingFaults
	fstats RingFaultStats

	// tracer, when set, records lookup spans with their hop chains and
	// RPC retry/failure events. Nil (the default) costs one pointer
	// check per lookup.
	tracer *trace.Tracer
}

// SetTracer installs (or, with nil, removes) the trace sink for lookup
// spans and RPC fault events.
func (r *Ring) SetTracer(t *trace.Tracer) { r.tracer = t }

// NewRingOf returns the ring that AddPeer(0) … AddPeer(n−1) builds on
// an empty ring, which is NewRingOf(0). It builds it in one pass: the
// same id-sorted peers, the same fingers and Changes() = n. It hashes
// and sorts the ids once, carves every peer's stored finger levels from
// one slab, then fills each level with forward sweeps: the targets
// id + 2^b rise with id except for one wrap past zero, so a level is two
// sorted runs, each swept from the ring's start.
// It returns an error if two hashed IDs collide.
func NewRingOf(n int) (*Ring, error) {
	r := &Ring{
		peers:   make([]*Peer, n),
		byNode:  make(map[topology.NodeID]*Peer, n),
		changes: uint64(n),
	}
	all := make([]Peer, n)
	for i := range all {
		p := &all[i]
		p.id, p.node = PeerID(topology.NodeID(i)), topology.NodeID(i)
		r.peers[i] = p
		r.byNode[p.node] = p
	}
	slices.SortFunc(r.peers, func(a, b *Peer) int { return cmp.Compare(a.id, b.id) })
	stored := 0
	for i, p := range r.peers {
		if i > 0 && r.peers[i-1].id == p.id {
			return nil, fmt.Errorf("dht: identifier collision for node %d", max(p.node, r.peers[i-1].node))
		}
		p.idx = i
		stored += 64 - r.lowLevels(p)
	}
	slab := make([]*Peer, stored)
	for _, p := range r.peers {
		k := 64 - r.lowLevels(p)
		p.fingers, slab = slab[:k:k], slab[k:]
	}
	for b := 0; b < 64; b++ {
		step := ID(1) << uint(b)
		wrap := r.search(-step) // peers[wrap:] have id + step past zero
		for _, run := range [][]*Peer{r.peers[:wrap], r.peers[wrap:]} {
			j := 0
			for _, p := range run {
				lo := 64 - len(p.fingers)
				if b < lo {
					continue
				}
				for j < n && r.peers[j].id < p.id+step {
					j++
				}
				p.fingers[b-lo] = r.peers[j%n]
			}
		}
	}
	return r, nil
}

// lowLevels returns how many of p's finger levels its successor owns:
// every level i with 2^i no further than the successor's id. A lone
// peer is its own successor at distance 0 and stores all 64.
func (r *Ring) lowLevels(p *Peer) int {
	return bits.Len64(uint64(r.successorAfter(p).id - p.id))
}

// finger returns p's finger i, the peer owning p.id + 2^i.
func (r *Ring) finger(p *Peer, i int) *Peer {
	if lo := 64 - len(p.fingers); i >= lo {
		return p.fingers[i-lo]
	}
	return r.successorAfter(p)
}

// setFinger points p's finger i at q if p stores that level. A level it
// does not store is its successor, which changes only with a rebuild of
// its table.
func setFinger(p *Peer, i int, q *Peer) {
	if lo := 64 - len(p.fingers); i >= lo {
		p.fingers[i-lo] = q
	}
}

// rebuildFingers recomputes p's stored levels after its successor
// changed, in the table's own storage when it is large enough.
func (r *Ring) rebuildFingers(p *Peer) {
	lo := r.lowLevels(p)
	p.fingers = slices.Grow(p.fingers[:0], 64-lo)
	for i := lo; i < 64; i++ {
		p.fingers = append(p.fingers, r.successor(p.id+1<<uint(i)))
	}
}

// AddPeer joins the overlay node to the ring and updates routing state.
// Finger tables are maintained incrementally — only the fingers the new
// peer takes over are rewritten, one arc per level — and land in the
// fully stabilized state, where finger i of every peer is the successor
// of its id + 2^i. A join still costs O(N): the id-sorted slice shifts
// to make room and every later peer's position is rewritten, so a ring
// built from scratch should come from NewRingOf. It returns an error if
// the node is already present or its hashed ID collides with an
// existing peer.
func (r *Ring) AddPeer(n topology.NodeID) (*Peer, error) {
	if _, ok := r.byNode[n]; ok {
		return nil, fmt.Errorf("dht: node %d already joined", n)
	}
	id := PeerID(n)
	if i := r.search(id); i < len(r.peers) && r.peers[i].id == id {
		return nil, fmt.Errorf("dht: identifier collision for node %d", n)
	}
	p := &Peer{id: id, node: n}
	i := r.search(id)
	r.peers = append(r.peers, nil)
	copy(r.peers[i+1:], r.peers[i:])
	r.peers[i] = p
	r.byNode[n] = p
	r.reindexFrom(i)
	r.changes++
	r.migrateOnJoin(p)
	r.updateFingersOnJoin(p)
	return p, nil
}

// RemovePeer removes the overlay node from the ring, transferring its
// stored entries to the new owner, and updates routing state (fingers
// that pointed at the departed peer move to its successor).
func (r *Ring) RemovePeer(n topology.NodeID) error {
	p, ok := r.byNode[n]
	if !ok {
		return fmt.Errorf("dht: node %d not in ring", n)
	}
	var pred *Peer
	if len(r.peers) > 1 {
		pred = r.predecessorOf(p)
	}
	i := p.idx
	r.peers = append(r.peers[:i], r.peers[i+1:]...)
	delete(r.byNode, n)
	r.reindexFrom(i)
	r.changes++
	if len(r.peers) > 0 {
		// The departing peer's keys now belong to its successor.
		succ := r.successor(p.id)
		succ.flat = append(succ.flat, p.flat...)
		sortEntries(succ.flat)
		r.updateFingersOnLeave(p, pred, succ)
	}
	// Clear the departed peer's entries so stale references to it
	// cannot find the dead copies.
	p.flat = nil
	return nil
}

// reindexFrom refreshes the cached slice positions of peers[i:].
func (r *Ring) reindexFrom(i int) {
	for ; i < len(r.peers); i++ {
		r.peers[i].idx = i
	}
}

// migrateOnJoin moves entries the new peer now owns from its successor.
func (r *Ring) migrateOnJoin(p *Peer) {
	if len(r.peers) <= 1 {
		return
	}
	next := r.successorAfter(p)
	kept := next.flat[:0]
	for _, e := range next.flat {
		if r.successor(e.Key) == p {
			p.flat = append(p.flat, e)
		} else {
			kept = append(kept, e)
		}
	}
	// Zero the vacated tail so it stops holding the moved entries' points.
	clear(next.flat[len(kept):])
	next.flat = kept
}

// updateFingersOnJoin gives the new peer its finger table, rebuilds its
// predecessor's (whose successor it now is) and redirects the fingers it
// now terminates. A finger q's level i must point at p exactly when
// q.id + 2^i lies in (pred.id, p.id] — i.e. q lies in that interval
// shifted back by 2^i — so for each level only one short arc of peers is
// rewritten.
func (r *Ring) updateFingersOnJoin(p *Peer) {
	r.rebuildFingers(p)
	if len(r.peers) == 1 {
		return
	}
	pred := r.predecessorOf(p)
	r.rebuildFingers(pred)
	for i := 0; i < 64; i++ {
		step := ID(1) << uint(i)
		r.forEachInArc(pred.id-step, p.id-step, func(q *Peer) {
			setFinger(q, i, p)
		})
	}
}

// updateFingersOnLeave rebuilds the table of the departed peer p's
// predecessor, whose successor is now succ, and redirects fingers that
// pointed at p to succ. Exactly the peers whose finger targets lay in
// (pred.id, p.id] pointed at p; the == p check guards the arc endpoints.
func (r *Ring) updateFingersOnLeave(p, pred, succ *Peer) {
	if pred == nil || pred == p {
		return
	}
	r.rebuildFingers(pred)
	for i := 0; i < 64; i++ {
		step := ID(1) << uint(i)
		r.forEachInArc(pred.id-step, p.id-step, func(q *Peer) {
			if r.finger(q, i) == p {
				setFinger(q, i, succ)
			}
		})
	}
}

// forEachInArc calls fn for every peer whose id lies in the half-open
// circle interval (a, b].
func (r *Ring) forEachInArc(a, b ID, fn func(*Peer)) {
	if len(r.peers) == 0 {
		return
	}
	if a == b {
		for _, p := range r.peers {
			fn(p)
		}
		return
	}
	i := r.search(a + 1) // first peer with id > a (a+1 wraps to 0 at the origin)
	if i == len(r.peers) {
		i = 0
	}
	for cnt := 0; cnt < len(r.peers); cnt++ {
		p := r.peers[i]
		if !inHalfOpenInterval(a, b, p.id) {
			return
		}
		fn(p)
		i++
		if i == len(r.peers) {
			i = 0
		}
	}
}

// Changes counts the ring's joins, leaves and crashes: while it stands
// still, every key keeps its owner and, unless the ring is Faulty,
// every lookup its route.
func (r *Ring) Changes() uint64 { return r.changes }

// NumPeers returns the ring size.
func (r *Ring) NumPeers() int { return len(r.peers) }

// Peers returns all peers in identifier order. The caller must not
// modify the slice.
func (r *Ring) Peers() []*Peer { return r.peers }

// PeerFor returns the peer running on the given overlay node.
func (r *Ring) PeerFor(n topology.NodeID) (*Peer, bool) {
	p, ok := r.byNode[n]
	return p, ok
}

// search returns the index of the first peer with id >= target.
func (r *Ring) search(target ID) int {
	return sort.Search(len(r.peers), func(i int) bool { return r.peers[i].id >= target })
}

// successor returns the peer that owns key k: the first peer at or after
// k on the circle (wrapping). Panics on an empty ring.
func (r *Ring) successor(k ID) *Peer {
	if len(r.peers) == 0 {
		panic("dht: successor on empty ring")
	}
	i := r.search(k)
	if i == len(r.peers) {
		i = 0
	}
	return r.peers[i]
}

// successorAfter returns the peer immediately following p on the circle
// in O(1) via the maintained slice position.
func (r *Ring) successorAfter(p *Peer) *Peer {
	i := p.idx + 1
	if i >= len(r.peers) {
		i = 0
	}
	return r.peers[i]
}

// predecessorOf returns the peer immediately preceding p on the circle
// in O(1) via the maintained slice position.
func (r *Ring) predecessorOf(p *Peer) *Peer {
	i := p.idx - 1
	if i < 0 {
		i = len(r.peers) - 1
	}
	return r.peers[i]
}

// inOpenInterval reports whether x lies in the open circle interval
// (a, b), handling wrap-around; the interval excludes both endpoints.
// If a == b the interval is the whole circle minus the endpoint.
func inOpenInterval(a, b, x ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}

// inHalfOpenInterval reports whether x lies in (a, b] on the circle.
func inHalfOpenInterval(a, b, x ID) bool {
	if a == b {
		return true // single-peer circle owns everything
	}
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b
}

// Lookup routes from the given start node to the owner of key k, counting
// forwarding hops (Chord's iterative find_successor). It returns the
// owning peer and the hop count. Under an installed fault oracle every
// hop is an RPC retried with capped backoff; a hop whose retry budget
// is exhausted degrades to the next-best finger, and the lookup fails
// only when no candidate answers at all.
func (r *Ring) Lookup(start topology.NodeID, k ID) (*Peer, int, error) {
	var sp trace.Span
	if r.tracer.Enabled() {
		sp = r.tracer.Begin("dht", "lookup",
			trace.Str("key", fmt.Sprintf("%#x", uint64(k))), trace.Int("start", int(start)))
	}
	cur, ok := r.byNode[start]
	if !ok {
		sp.End(trace.Str("outcome", "bad_start"))
		return nil, 0, fmt.Errorf("dht: lookup start node %d not in ring", start)
	}
	if len(r.peers) == 1 {
		sp.End(trace.Str("outcome", "owner"), trace.Int("hops", 0))
		return cur, 0, nil
	}
	hops := 0
	for limit := 2 * len(r.peers); limit > 0; limit-- {
		succ := r.successorAfter(cur)
		if inHalfOpenInterval(cur.id, succ.id, k) {
			if !r.rpc(cur, succ) {
				sp.End(trace.Str("outcome", "owner_unreachable"), trace.Int("hops", hops))
				return nil, hops, fmt.Errorf("dht: lookup for %#x: owner unreachable from node %d", uint64(k), cur.node)
			}
			if sp.Active() {
				sp.Emit("hop", trace.Int("from", int(cur.node)), trace.Int("to", int(succ.node)))
				sp.End(trace.Str("outcome", "owner"), trace.Int("hops", hops+1))
			}
			return succ, hops + 1, nil
		}
		next := r.nextHop(cur, k, succ)
		if next == nil {
			sp.End(trace.Str("outcome", "no_route"), trace.Int("hops", hops))
			return nil, hops, fmt.Errorf("dht: lookup for %#x: no reachable hop from node %d", uint64(k), cur.node)
		}
		if sp.Active() {
			sp.Emit("hop", trace.Int("from", int(cur.node)), trace.Int("to", int(next.node)))
		}
		cur = next
		hops++
	}
	sp.End(trace.Str("outcome", "diverged"), trace.Int("hops", hops))
	return nil, hops, fmt.Errorf("dht: lookup for %#x did not converge", uint64(k))
}

// Owner returns the peer owning key k without routing (oracle access for
// tests and local operations).
func (r *Ring) Owner(k ID) *Peer {
	return r.successor(k)
}
