package dht

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// testEnv builds a ring of n peers with random published coordinates in a
// 2-vector + 1-scalar cost space.
type testEnv struct {
	ring    *Ring
	catalog *Catalog
	space   *costspace.Space
	points  map[topology.NodeID]costspace.Point
}

func newTestEnv(t *testing.T, n int, seed int64) *testEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := costspace.NewLatencyLoadSpace(100)
	ring := NewRing()
	points := make(map[topology.NodeID]costspace.Point, n)
	var pts []costspace.Point
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if _, err := ring.AddPeer(id); err != nil {
			t.Fatalf("AddPeer(%d): %v", i, err)
		}
		p := space.NewPoint(
			vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200},
			[]float64{rng.Float64()},
		)
		points[id] = p
		pts = append(pts, p)
	}
	bounds, err := costspace.ComputeBounds(pts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(ring, space, mustCurve(t, uint(space.Dims()), 16), bounds)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range points {
		if _, err := cat.Publish(id, p); err != nil {
			t.Fatalf("Publish(%d): %v", id, err)
		}
	}
	return &testEnv{ring: ring, catalog: cat, space: space, points: points}
}

// TestFrameBits: the frame spends 16 bits per dimension, or fewer when
// the key would exceed 64 bits.
func TestFrameBits(t *testing.T) {
	for dims := 2; dims <= 8; dims++ {
		space := &costspace.Space{VectorDims: dims - 1, Scalars: []costspace.ScalarDim{
			{Name: "cpu-load", Weight: costspace.SquaredWeight{Scale: 100}},
		}}
		p := space.NewPoint(make(vivaldi.Coord, dims-1), []float64{0.2})
		curve, bounds, err := Frame(space, []costspace.Point{p})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(16, 64/uint(dims)); curve.Bits() != want || curve.Dims() != uint(dims) {
			t.Fatalf("dims %d: curve %d×%d bits, want %d×%d", dims, curve.Dims(), curve.Bits(), dims, want)
		}
		if top := bounds.Max[dims-1]; top <= 100*1.5*1.5 {
			t.Fatalf("dims %d: load bound %v does not cover full load", dims, top)
		}
	}
}

// TestNewNodeCatalogPublishesEveryNode: node i is a ring member and
// published at pts[i], under its key in the frame.
func TestNewNodeCatalogPublishesEveryNode(t *testing.T) {
	env := newTestEnv(t, 40, 3)
	pts := make([]costspace.Point, len(env.points))
	for id, p := range env.points {
		pts[id] = p
	}
	cat, err := NewNodeCatalog(env.space, pts)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Ring().NumPeers() != len(pts) || cat.NumPublished() != len(pts) {
		t.Fatalf("%d peers, %d published, want %d each", cat.Ring().NumPeers(), cat.NumPublished(), len(pts))
	}
	for i, p := range pts {
		e, ok := cat.PublishedEntry(topology.NodeID(i))
		if !ok || env.space.Distance(e.Point, p) != 0 || e.Key != cat.KeyOf(p) {
			t.Fatalf("node %d: entry %+v, want point %v", i, e, p)
		}
	}
	if _, err := NewNodeCatalog(env.space, nil); err == nil {
		t.Fatal("catalog over no points accepted")
	}
}

// NewRing returns the empty ring that the tests grow join by join.
func NewRing() *Ring {
	r, _ := NewRingOf(0) // no ids, so no collision
	return r
}

// mustCurve is hilbert.New for a curve shape the test knows is valid.
func mustCurve(t testing.TB, dims, bits uint) hilbert.Curve {
	t.Helper()
	c, err := hilbert.New(dims, bits)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPeerIDDeterministicAndSpread(t *testing.T) {
	if PeerID(5) != PeerID(5) {
		t.Fatal("PeerID not deterministic")
	}
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := PeerID(topology.NodeID(i))
		if seen[id] {
			t.Fatalf("PeerID collision at node %d", i)
		}
		seen[id] = true
	}
}

func TestAddPeerSortedAndDuplicate(t *testing.T) {
	r := NewRing()
	for i := 0; i < 50; i++ {
		if _, err := r.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < r.NumPeers(); i++ {
		if r.peers[i-1].id >= r.peers[i].id {
			t.Fatal("peers not sorted by ID")
		}
	}
	if _, err := r.AddPeer(7); err == nil {
		t.Fatal("duplicate AddPeer accepted")
	}
}

func TestOwnerMatchesNaiveSuccessor(t *testing.T) {
	r := NewRing()
	for i := 0; i < 64; i++ {
		if _, err := r.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []ID
	for _, p := range r.peers {
		ids = append(ids, p.id)
	}
	naive := func(k ID) ID {
		best := ids[0]
		found := false
		for _, id := range ids {
			if id >= k && (!found || id < best) {
				best = id
				found = true
			}
		}
		if !found {
			// wrap: smallest id
			best = ids[0]
			for _, id := range ids {
				if id < best {
					best = id
				}
			}
		}
		return best
	}
	f := func(k uint64) bool {
		return r.Owner(ID(k)).id == naive(ID(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupFindsOwnerFromAnyStart(t *testing.T) {
	r := NewRing()
	const n = 128
	for i := 0; i < n; i++ {
		if _, err := r.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	maxHops := 0
	for trial := 0; trial < 400; trial++ {
		k := ID(rng.Uint64())
		start := topology.NodeID(rng.Intn(n))
		got, hops, err := r.Lookup(start, k)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if want := r.Owner(k); got != want {
			t.Fatalf("Lookup(%#x) = peer %d, want %d", uint64(k), got.node, want.node)
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// Fully stabilized Chord: hops bounded by ~log2(n) + slack.
	bound := int(2*math.Log2(n)) + 4
	if maxHops > bound {
		t.Fatalf("max hops %d exceeds bound %d for n=%d", maxHops, bound, n)
	}
}

func TestLookupSinglePeer(t *testing.T) {
	r := NewRing()
	if _, err := r.AddPeer(0); err != nil {
		t.Fatal(err)
	}
	p, hops, err := r.Lookup(0, 12345)
	if err != nil || p.node != 0 || hops != 0 {
		t.Fatalf("single-peer lookup = %v, %d, %v", p, hops, err)
	}
}

func TestLookupUnknownStart(t *testing.T) {
	r := NewRing()
	if _, err := r.AddPeer(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(99, 1); err == nil {
		t.Fatal("lookup from unknown node accepted")
	}
}

func TestLookupHopsGrowLogarithmically(t *testing.T) {
	meanHops := func(n int) float64 {
		r := NewRing()
		for i := 0; i < n; i++ {
			if _, err := r.AddPeer(topology.NodeID(i)); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		total := 0
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			_, hops, err := r.Lookup(topology.NodeID(rng.Intn(n)), ID(rng.Uint64()))
			if err != nil {
				t.Fatal(err)
			}
			total += hops
		}
		return float64(total) / trials
	}
	small := meanHops(32)
	large := meanHops(512)
	// 16x more peers should cost roughly +4 hops, certainly not 16x.
	if large > small*3+4 {
		t.Fatalf("hops not logarithmic: n=32 mean %v, n=512 mean %v", small, large)
	}
}

func TestRemovePeerMaintainsLookups(t *testing.T) {
	r := NewRing()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := r.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		victim := topology.NodeID(rng.Intn(n))
		if _, ok := r.PeerFor(victim); !ok {
			continue
		}
		if err := r.RemovePeer(victim); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 200; trial++ {
		k := ID(rng.Uint64())
		var start topology.NodeID = -1
		for i := 0; i < n; i++ {
			if _, ok := r.PeerFor(topology.NodeID(i)); ok {
				start = topology.NodeID(i)
				break
			}
		}
		got, _, err := r.Lookup(start, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Owner(k); got != want {
			t.Fatalf("post-churn Lookup(%#x) = %d, want %d", uint64(k), got.node, want.node)
		}
	}
	if err := r.RemovePeer(9999); err == nil {
		t.Fatal("removing unknown peer accepted")
	}
}

func TestPublishUnpublish(t *testing.T) {
	env := newTestEnv(t, 32, 1)
	if got := env.catalog.NumPublished(); got != 32 {
		t.Fatalf("NumPublished = %d, want 32", got)
	}
	e, ok := env.catalog.PublishedEntry(5)
	if !ok {
		t.Fatal("entry for node 5 missing")
	}
	if env.space.Distance(e.Point, env.points[5]) != 0 {
		t.Fatal("published point differs")
	}
	env.catalog.Unpublish(5)
	if _, ok := env.catalog.PublishedEntry(5); ok {
		t.Fatal("entry survived Unpublish")
	}
	if got := env.catalog.NumPublished(); got != 31 {
		t.Fatalf("NumPublished = %d, want 31", got)
	}
	// Unpublish of a missing node is a no-op.
	env.catalog.Unpublish(5)
}

func TestRepublishReplacesEntry(t *testing.T) {
	env := newTestEnv(t, 16, 2)
	newPt := env.space.NewPoint(vivaldi.Coord{1, 1}, []float64{0})
	if _, err := env.catalog.Publish(3, newPt); err != nil {
		t.Fatal(err)
	}
	if got := env.catalog.NumPublished(); got != 16 {
		t.Fatalf("NumPublished = %d, want 16 after republish", got)
	}
	if e, ok := env.catalog.PublishedEntry(3); !ok || env.space.Distance(e.Point, newPt) != 0 {
		t.Fatalf("entry after republish = %v, want node 3 at %v", e, newPt)
	}
	// Exactly one stored copy must exist across all peers.
	count := 0
	for _, p := range env.ring.peers {
		for _, e := range p.flat {
			if e.Node == 3 {
				count++
			}
		}
	}
	if count != 1 {
		t.Fatalf("found %d stored copies for node 3, want 1", count)
	}
}

func TestNearestNodesSmallRingExact(t *testing.T) {
	// With a small ring, the oversampling walk covers every entry, so the
	// DHT answer must equal the oracle exactly.
	env := newTestEnv(t, 12, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		target := env.space.IdealPoint(vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200})
		res, err := env.catalog.NearestNodes(0, target, 3, env.ring.NumPeers())
		if err != nil {
			t.Fatal(err)
		}
		oracle := scanNearest(env.catalog, target, 3)
		if len(res.Entries) != len(oracle) {
			t.Fatalf("got %d entries, oracle %d", len(res.Entries), len(oracle))
		}
		for i := range oracle {
			if res.Entries[i].Node != oracle[i].Node {
				t.Fatalf("trial %d: entry %d = node %d, oracle %d", trial, i, res.Entries[i].Node, oracle[i].Node)
			}
		}
	}
}

func TestNearestNodesMappingErrorSmall(t *testing.T) {
	// On a larger ring the walk may stop early; the chosen node's distance
	// must still be close to the oracle's on average (Figure 3's "error
	// remains small" claim, quantified in experiment X3).
	env := newTestEnv(t, 300, 9)
	rng := rand.New(rand.NewSource(10))
	var ratioSum float64
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		target := env.space.IdealPoint(vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200})
		res, err := env.catalog.NearestNodes(topology.NodeID(rng.Intn(300)), target, 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) == 0 {
			t.Fatal("no entries returned")
		}
		oracle := scanNearest(env.catalog, target, 1)
		do := env.space.Distance(target, oracle[0].Point)
		dg := env.space.Distance(target, res.Entries[0].Point)
		if do == 0 {
			ratioSum += 1
		} else {
			ratioSum += dg / do
		}
	}
	if mean := ratioSum / trials; mean > 2.5 {
		t.Fatalf("mean mapping distance ratio %v too large", mean)
	}
}

func TestNearestNodesValidation(t *testing.T) {
	env := newTestEnv(t, 8, 11)
	target := env.space.IdealPoint(vivaldi.Coord{0, 0})
	if _, err := env.catalog.NearestNodes(0, target, 0, 10); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := env.catalog.NearestNodes(0, costspace.Point{1}, 1, 10); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestCatalogValidation(t *testing.T) {
	space := costspace.NewLatencyLoadSpace(100)
	ring := NewRing()
	curve2 := mustCurve(t, 2, 8) // wrong dims for 3-dim space
	bounds := costspace.Bounds{Min: costspace.Point{0, 0, 0}, Max: costspace.Point{1, 1, 1}}
	if _, err := NewCatalog(ring, space, curve2, bounds); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	curve3 := mustCurve(t, 3, 8)
	badBounds := costspace.Bounds{Min: costspace.Point{0}, Max: costspace.Point{1}}
	if _, err := NewCatalog(ring, space, curve3, badBounds); err == nil {
		t.Fatal("bounds mismatch accepted")
	}
	cat, err := NewCatalog(ring, space, curve3, bounds)
	if err != nil {
		t.Fatal(err)
	}
	p := space.IdealPoint(vivaldi.Coord{0.5, 0.5})
	if _, err := cat.Publish(1, p); err == nil {
		t.Fatal("publish on empty ring accepted")
	}
	if _, err := cat.Publish(1, costspace.Point{1}); err == nil {
		t.Fatal("publish of wrong-dim point accepted")
	}
}

func TestKeyOfPreservesHilbertOrder(t *testing.T) {
	env := newTestEnv(t, 4, 12)
	// Keys for increasing scalar-only differences along the curve must be
	// valid ring IDs; spot-check ordering is preserved under the shift.
	a := env.catalog.KeyOf(env.space.IdealPoint(vivaldi.Coord{10, 10}))
	b := env.catalog.KeyOf(env.space.IdealPoint(vivaldi.Coord{10, 10}))
	if a != b {
		t.Fatal("KeyOf not deterministic")
	}
}

// TestKeyOfDoesNotAllocate pins the stack quantization buffer: KeyOf
// runs once per mapping and per publish, and an escape of the buffer
// through the quantizer or the encoder would cost one allocation each.
func TestKeyOfDoesNotAllocate(t *testing.T) {
	env := newTestEnv(t, 8, 17)
	p := env.points[3]
	var sink ID
	if allocs := testing.AllocsPerRun(100, func() { sink ^= env.catalog.KeyOf(p) }); allocs != 0 {
		t.Fatalf("%v allocs per KeyOf, want 0", allocs)
	}
	_ = sink
}

// TestRepublishDoesNotAllocate pins the in-place republish: moving an
// already-published node copies its new point into the catalog's own
// copy and swaps its stored entry between peers whose entry slices have
// room, so it allocates nothing. The catalog's copy is never the
// caller's point.
func TestRepublishDoesNotAllocate(t *testing.T) {
	env := newTestEnv(t, 40, 23)
	ids := make([]topology.NodeID, 0, len(env.points))
	for id := range env.points {
		ids = append(ids, id)
	}
	// Every node alternates between its own point and its mirror image,
	// so each republish moves the entry to another key.
	moved := make(map[topology.NodeID]costspace.Point, len(ids))
	for _, id := range ids {
		p := env.points[id]
		moved[id] = env.space.NewPoint(vivaldi.Coord{200 - p[0], 200 - p[1]}, []float64{0.5})
	}
	i := 0
	step := func() {
		id := ids[i%len(ids)]
		p := env.points[id]
		if (i/len(ids))%2 == 0 {
			p = moved[id]
		}
		if _, err := env.catalog.Publish(id, p); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Two full rounds give every peer's entry slice the room the
	// counted rounds need.
	for range 4 * len(ids) {
		step()
	}
	if allocs := testing.AllocsPerRun(2*len(ids), step); allocs != 0 {
		t.Fatalf("%v allocs per republish, want 0", allocs)
	}
	for _, id := range ids {
		e, ok := env.catalog.PublishedEntry(id)
		if !ok || &e.Point[0] == &env.points[id][0] || &e.Point[0] == &moved[id][0] {
			t.Fatalf("node %d: entry %v shares the caller's point (published %v)", id, e.Point, ok)
		}
	}
}

func TestChurnKeepsEntriesReachable(t *testing.T) {
	env := newTestEnv(t, 40, 14)
	rng := rand.New(rand.NewSource(15))
	// Remove 10 ring peers (their catalog entries survive on new owners).
	removed := map[topology.NodeID]bool{}
	for len(removed) < 10 {
		v := topology.NodeID(rng.Intn(40))
		if removed[v] {
			continue
		}
		if err := env.ring.RemovePeer(v); err != nil {
			t.Fatal(err)
		}
		removed[v] = true
	}
	var start topology.NodeID = -1
	for i := 0; i < 40; i++ {
		if _, ok := env.ring.PeerFor(topology.NodeID(i)); ok {
			start = topology.NodeID(i)
			break
		}
	}
	target := env.space.IdealPoint(vivaldi.Coord{100, 100})
	res, err := walkEntries(env.catalog, start, target, env.ring.NumPeers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 40 {
		t.Fatalf("found %d entries after churn, want all 40", len(res.Entries))
	}
}

func TestIntervalHelpers(t *testing.T) {
	cases := []struct {
		a, b, x  ID
		open, ho bool
	}{
		{10, 20, 15, true, true},
		{10, 20, 10, false, false},
		{10, 20, 20, false, true},
		{20, 10, 25, true, true}, // wrapped
		{20, 10, 5, true, true},  // wrapped
		{20, 10, 15, false, false},
		{7, 7, 7, false, true}, // degenerate: whole circle
		{7, 7, 9, true, true},
	}
	for i, tc := range cases {
		if got := inOpenInterval(tc.a, tc.b, tc.x); got != tc.open {
			t.Fatalf("case %d: inOpenInterval(%d,%d,%d) = %v, want %v", i, tc.a, tc.b, tc.x, got, tc.open)
		}
		if got := inHalfOpenInterval(tc.a, tc.b, tc.x); got != tc.ho {
			t.Fatalf("case %d: inHalfOpenInterval(%d,%d,%d) = %v, want %v", i, tc.a, tc.b, tc.x, got, tc.ho)
		}
	}
}

// BenchmarkLookup routes from a random start node to the owner of a
// random key on NewRingOf rings of the bench's 2k- and 16k-node sizes,
// and reports the mean hop count.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{2064, 16400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := NewRingOf(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			hops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, h, err := r.Lookup(topology.NodeID(rng.Intn(n)), ID(rng.Uint64()))
				if err != nil {
					b.Fatal(err)
				}
				hops += h
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkNodeCatalog times NewNodeCatalog, ring and publishes, at the
// node counts of the bench's 2k-node workload, its 16k-node workloads
// and X18's 100k-node overlay, over uniform points of a 250-unit
// latency-load space.
func BenchmarkNodeCatalog(b *testing.B) {
	for _, n := range []int{2064, 16400, 102464} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			space := costspace.NewLatencyLoadSpace(100)
			rng := rand.New(rand.NewSource(1))
			pts := make([]costspace.Point, n)
			for i := range pts {
				pts[i] = space.NewPoint(vivaldi.Coord{rng.Float64() * 250, rng.Float64() * 250}, []float64{rng.Float64()})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewNodeCatalog(space, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storedCopies counts live stored entries for a node across all peers.
func storedCopies(r *Ring, node topology.NodeID) int {
	count := 0
	for _, p := range r.peers {
		for _, e := range p.flat {
			if e.Node == node {
				count++
			}
		}
	}
	return count
}

// TestRepublishAfterChurnLeavesOneCopy drives republishes through ring
// churn: joins and leaves migrate entries behind the catalog's back,
// and republishes must still remove exactly the stale copy.
func TestRepublishAfterChurnLeavesOneCopy(t *testing.T) {
	env := newTestEnv(t, 32, 21)
	rng := rand.New(rand.NewSource(22))
	next := topology.NodeID(100)
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0: // join (migrates entries off the successor)
			if _, err := env.ring.AddPeer(next); err != nil {
				t.Fatal(err)
			}
			next++
		case 1: // leave (migrates entries to the successor)
			peers := env.ring.Peers()
			if len(peers) > 8 {
				victim := peers[rng.Intn(len(peers))].Node()
				if err := env.ring.RemovePeer(victim); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // republish a random published node at a new coordinate
			n := topology.NodeID(rng.Intn(32))
			p := env.space.NewPoint(
				vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200},
				[]float64{rng.Float64()},
			)
			if _, err := env.catalog.Publish(n, p); err != nil {
				t.Fatal(err)
			}
		}
		// Invariant: exactly one stored copy per published node.
		for i := 0; i < 32; i++ {
			if got := storedCopies(env.ring, topology.NodeID(i)); got != 1 {
				t.Fatalf("round %d: node %d has %d stored copies, want 1", round, i, got)
			}
		}
	}
}

// TestUnpublishAfterPeerLeaveRemovesCopy: the peer storing an entry
// departs (its entries migrate to its successor), then the node
// unpublishes.
func TestUnpublishAfterPeerLeaveRemovesCopy(t *testing.T) {
	env := newTestEnv(t, 16, 25)
	e, _ := env.catalog.PublishedEntry(7)
	holder := env.ring.Owner(e.Key)
	if err := env.ring.RemovePeer(holder.Node()); err != nil {
		t.Fatal(err)
	}
	env.catalog.Unpublish(7)
	if got := storedCopies(env.ring, 7); got != 0 {
		t.Fatalf("node 7 still has %d stored copies after Unpublish", got)
	}
	// The rest are intact and reachable.
	for i := 0; i < 16; i++ {
		if i == 7 || topology.NodeID(i) == holder.Node() {
			continue
		}
		if got := storedCopies(env.ring, topology.NodeID(i)); got != 1 {
			t.Fatalf("node %d has %d copies", i, got)
		}
	}
}

// TestRepublishAllMatchesPublish: a bulk sync leaves what Publish for
// each listed node in turn leaves on an identical catalog — the same
// entries on every peer, the same PublishedEntry, the same Mutations —
// on a fresh ring, after churn and an unpublish, and after a crash not
// yet repaired (the per-node fallback). Nodes the catalog does not list
// are among those synced, and stay unpublished. Two syncs run in a row,
// then one plain republish, which must find each entry where the bulk
// sync stored it.
func TestRepublishAllMatchesPublish(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(*testEnv)
	}{
		{"fresh", func(*testEnv) {}},
		{"churned", func(e *testEnv) {
			_ = e.ring.RemovePeer(3)
			_, _ = e.ring.AddPeer(70)
			e.catalog.Unpublish(5)
		}},
		{"unrepaired crash", func(e *testEnv) { _, _ = e.ring.CrashPeer(7) }},
	} {
		bulk, each := newTestEnv(t, 60, 31), newTestEnv(t, 60, 31)
		tc.prep(bulk)
		tc.prep(each)
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 2; round++ {
			pts := make([]costspace.Point, 64)
			var nodes []topology.NodeID
			for n := range pts {
				if n%3 == round { // these stay put this round
					continue
				}
				nodes = append(nodes, topology.NodeID(n))
				pts[n] = bulk.space.NewPoint(vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200}, []float64{rng.Float64()})
			}
			if err := bulk.catalog.RepublishAll(nodes, pts); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if _, ok := each.catalog.PublishedEntry(n); !ok {
					continue
				}
				if _, err := each.catalog.Publish(n, pts[n]); err != nil {
					t.Fatal(err)
				}
			}
			requireSameCatalog(t, tc.name, bulk.catalog, each.catalog)
			for _, n := range nodes {
				if e, ok := bulk.catalog.PublishedEntry(n); ok && &e.Point[0] == &pts[n][0] {
					t.Fatalf("%s: node %d's entry shares the caller's point", tc.name, n)
				}
			}
		}
		p := bulk.space.NewPoint(vivaldi.Coord{1, 2}, []float64{0.5})
		for _, e := range []*testEnv{bulk, each} {
			if _, err := e.catalog.Publish(2, p); err != nil {
				t.Fatal(err)
			}
		}
		requireSameCatalog(t, tc.name+", then a republish", bulk.catalog, each.catalog)
	}
}

// requireSameCatalog compares two catalogs over equal rings: the
// mutation count, every node's published entry, and every peer's
// entries as a multiset.
func requireSameCatalog(t *testing.T, name string, got, want *Catalog) {
	t.Helper()
	if got.Mutations() != want.Mutations() || got.NumPublished() != want.NumPublished() {
		t.Fatalf("%s: %d mutations, %d published; want %d, %d", name,
			got.Mutations(), got.NumPublished(), want.Mutations(), want.NumPublished())
	}
	same := func(a, b Entry) bool {
		if a.Key != b.Key || a.Node != b.Node || len(a.Point) != len(b.Point) {
			return false
		}
		for i := range a.Point {
			if math.Float64bits(a.Point[i]) != math.Float64bits(b.Point[i]) {
				return false
			}
		}
		return true
	}
	for n := topology.NodeID(0); n < 80; n++ {
		g, gok := got.PublishedEntry(n)
		w, wok := want.PublishedEntry(n)
		if gok != wok || gok && !same(g, w) {
			t.Fatalf("%s: node %d published %v %v, want %v %v", name, n, gok, g, wok, w)
		}
	}
	sorted := func(p *Peer) []Entry {
		out := append([]Entry(nil), p.Entries()...)
		slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
		return out
	}
	gp, wp := got.Ring().Peers(), want.Ring().Peers()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d peers, want %d", name, len(gp), len(wp))
	}
	for i := range gp {
		g, w := sorted(gp[i]), sorted(wp[i])
		if !slices.EqualFunc(g, w, same) {
			t.Fatalf("%s: peer %d holds %v, want %v", name, gp[i].Node(), g, w)
		}
	}
}
