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
// Fingers are computed, not stored. The simulated ring is always fully
// stabilized, so finger i of a peer is by definition the successor of
// id + 2^i in the id-sorted peer slice, and Ring.finger answers exactly
// that. A successor search starts from the ring's head table: the
// circle is cut into 2^bits.Len(N) equal buckets, head[j] is the first
// peer at or past bucket j's start, and hashed ids fill the buckets
// about one peer each, so a search steps past at most a bucket's few
// peers. A join, leave or crash rebuilds the table and every peer's
// slice position in one pass (Ring.reindex); nothing else changes.
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
	// rewritten on every join, leave and crash so ring-walk neighbor
	// steps are O(1) instead of a search per step.
	idx int
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

	// head[j] is the first peer at or past j<<shift, or the last peer
	// if none is, for each of the 2^(64−shift) buckets; see successor
	// and reindex.
	head  []*Peer
	shift uint

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
// same id-sorted peers at the same positions and Changes() = n. It
// returns an error if two hashed IDs collide.
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
	for i := 1; i < n; i++ {
		if a, b := r.peers[i-1], r.peers[i]; a.id == b.id {
			return nil, fmt.Errorf("dht: identifier collision for node %d", max(a.node, b.node))
		}
	}
	r.reindex()
	return r, nil
}

// reindex rewrites every peer's slice position and rebuilds the head
// table over 2^bits.Len(N) buckets, after the peer slice changed.
func (r *Ring) reindex() {
	n := len(r.peers)
	b := bits.Len(uint(n))
	r.shift = uint(64 - b)
	r.head = slices.Grow(r.head[:0], 1<<b)
	for i, p := range r.peers {
		p.idx = i
		for len(r.head) <= int(p.id>>r.shift) {
			r.head = append(r.head, p)
		}
	}
	for n > 0 && len(r.head) < 1<<b {
		r.head = append(r.head, r.peers[n-1])
	}
}

// finger returns p's finger i, the peer owning p.id + 2^i.
func (r *Ring) finger(p *Peer, i int) *Peer {
	return r.successor(p.id + 1<<uint(i))
}

// AddPeer joins the overlay node to the ring, taking over from its
// successor the entries it now owns. A join costs O(N): the id-sorted
// slice shifts to make room and reindex rewrites every position, so a
// ring built from scratch should come from NewRingOf. It returns an
// error if the node is already present or its hashed ID collides with
// an existing peer.
func (r *Ring) AddPeer(n topology.NodeID) (*Peer, error) {
	if _, ok := r.byNode[n]; ok {
		return nil, fmt.Errorf("dht: node %d already joined", n)
	}
	id := PeerID(n)
	i, taken := slices.BinarySearchFunc(r.peers, id, func(p *Peer, id ID) int { return cmp.Compare(p.id, id) })
	if taken {
		return nil, fmt.Errorf("dht: identifier collision for node %d", n)
	}
	p := &Peer{id: id, node: n}
	r.peers = slices.Insert(r.peers, i, p)
	r.byNode[n] = p
	r.reindex()
	r.changes++
	r.migrateOnJoin(p)
	return p, nil
}

// RemovePeer removes the overlay node from the ring, transferring its
// stored entries to the new owner, its successor.
func (r *Ring) RemovePeer(n topology.NodeID) error {
	p, err := r.remove(n)
	if err != nil {
		return err
	}
	if len(r.peers) > 0 {
		succ := r.successor(p.id)
		succ.flat = append(succ.flat, p.flat...)
		sortEntries(succ.flat)
	}
	// Clear the departed peer's entries so stale references to it
	// cannot find the dead copies.
	p.flat = nil
	return nil
}

// remove takes the node's peer out of the ring, leaving its entries on
// it: the one leave path under RemovePeer and CrashPeer.
func (r *Ring) remove(n topology.NodeID) (*Peer, error) {
	p, ok := r.byNode[n]
	if !ok {
		return nil, fmt.Errorf("dht: node %d not in ring", n)
	}
	r.peers = slices.Delete(r.peers, p.idx, p.idx+1)
	delete(r.byNode, n)
	r.reindex()
	r.changes++
	return p, nil
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

// successor returns the peer that owns key k: the first peer at or after
// k on the circle (wrapping). It steps from the head of k's bucket past
// the bucket's peers below k, about one on a ring of hashed ids, and
// wraps after the last peer. Panics on an empty ring.
func (r *Ring) successor(k ID) *Peer {
	if len(r.peers) == 0 {
		panic("dht: successor on empty ring")
	}
	p := r.head[k>>r.shift]
	for i := p.idx + 1; p.id < k; i++ {
		if i == len(r.peers) {
			return r.peers[0]
		}
		p = r.peers[i]
	}
	return p
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
