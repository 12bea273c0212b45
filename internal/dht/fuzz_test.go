package dht

import (
	"math"
	"slices"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// fuzzNodes bounds the node ids a fuzz input can name, so that publishes,
// joins, crashes and exclusions keep hitting the same few nodes.
const fuzzNodes = 48

// fuzzBytes hands out an input byte by byte; an exhausted input reads as
// zeroes, so every prefix of an input is an input.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) more() bool { return len(b.data) > 0 }

func (b *fuzzBytes) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

func (b *fuzzBytes) node() topology.NodeID { return topology.NodeID(b.next() % fuzzNodes) }

// admissibleWorld is the catalog under fuzz plus the one comparison the
// target makes.
type admissibleWorld struct {
	t     *testing.T
	space *costspace.Space
	ring  *Ring
	cat   *Catalog
}

func newAdmissibleWorld(t *testing.T) *admissibleWorld {
	space := costspace.NewLatencyLoadSpace(100)
	bounds, err := costspace.ComputeBounds([]costspace.Point{
		space.NewPoint(vivaldi.Coord{0, 0}, []float64{0}),
		space.NewPoint(vivaldi.Coord{255, 255}, []float64{1}),
	}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing()
	// Eight bits per axis: coarse enough that distinct points share keys.
	cat, err := NewCatalog(ring, space, mustCurve(t, uint(space.Dims()), 8), bounds)
	if err != nil {
		t.Fatal(err)
	}
	w := &admissibleWorld{t: t, space: space, ring: ring, cat: cat}
	for n := topology.NodeID(0); n < 12; n++ {
		if _, err := ring.AddPeer(n); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 24; n++ {
		w.publish(topology.NodeID(n), float64(n*37%256), float64(n*91%256), float64(n%5)/4)
	}
	return w
}

// publish ignores the error: an emptied ring refuses publishes, and the
// queries that follow must then fail on both sides alike.
func (w *admissibleWorld) publish(n topology.NodeID, x, y, load float64) {
	_, _ = w.cat.Publish(n, w.space.NewPoint(vivaldi.Coord{x, y}, []float64{load}))
}

// check holds NearestAdmissible to the first admissible entry of the
// ranked list, for k candidates beyond the exclusions — the n the
// mapper asks for.
func (w *admissibleWorld) check(start topology.NodeID, target costspace.Point, k, maxScan int, exclude map[topology.NodeID]bool) {
	t := w.t
	t.Helper()
	n := k + len(exclude)
	ref, refErr := w.cat.NearestNodes(start, target, n, maxScan)
	got, gotErr := w.cat.NearestAdmissible(start, target, n, maxScan, exclude)
	if (refErr != nil) != (gotErr != nil) {
		t.Fatalf("errors differ: ranked %v, one-pass %v", refErr, gotErr)
	}
	if refErr != nil {
		return
	}
	if got.LookupHops != ref.LookupHops || got.PeersWalked != ref.PeersWalked || got.Candidates != len(ref.Entries) {
		t.Fatalf("walk (hops %d, peers %d, candidates %d), ranked (%d, %d, %d)",
			got.LookupHops, got.PeersWalked, got.Candidates, ref.LookupHops, ref.PeersWalked, len(ref.Entries))
	}
	for _, e := range ref.Entries {
		if exclude[e.Node] {
			continue
		}
		d := w.space.Distance(target, e.Point)
		if !got.Found || got.Node != e.Node || math.Float64bits(got.Distance) != math.Float64bits(d) {
			t.Fatalf("one-pass (found %v, node %d, distance %v), first admissible of the ranked %d is node %d at %v (n %d, maxScan %d, exclude %v)",
				got.Found, got.Node, got.Distance, len(ref.Entries), e.Node, d, n, maxScan, exclude)
		}
		return
	}
	if got.Found {
		t.Fatalf("one-pass found node %d, none of the ranked %d is admissible (n %d, maxScan %d, exclude %v)",
			got.Node, len(ref.Entries), n, maxScan, exclude)
	}
}

// requireSorted holds every peer's entries to first-coordinate order,
// the order NearestFrom's outward scan relies on.
func (w *admissibleWorld) requireSorted(steps int) {
	w.t.Helper()
	for _, p := range w.ring.peers {
		for i := 1; i < len(p.flat); i++ {
			if p.flat[i-1].Point[0] > p.flat[i].Point[0] {
				w.t.Fatalf("after %d steps, peer %d stores node %d (x %v) before node %d (x %v)",
					steps, p.node, p.flat[i-1].Node, p.flat[i-1].Point[0], p.flat[i].Node, p.flat[i].Point[0])
			}
		}
	}
}

// excludeSet builds one of the exclusion shapes the mapper meets: none,
// a few named nodes some of which map to false, the nearest few of the
// ranked answer (so the running minimum has to pass over them), every
// node, and every node mapped to false.
func (w *admissibleWorld) excludeSet(mode, arg int, start topology.NodeID, target costspace.Point, k, maxScan int, b *fuzzBytes) map[topology.NodeID]bool {
	switch mode % 5 {
	case 1:
		ex := map[topology.NodeID]bool{}
		for i := arg % 6; i > 0; i-- {
			v := b.next()
			ex[topology.NodeID(v%fuzzNodes)] = v < 192
		}
		return ex
	case 2:
		ex := map[topology.NodeID]bool{}
		if res, err := w.cat.NearestNodes(start, target, k, maxScan); err == nil {
			for _, e := range res.Entries[:min(len(res.Entries), 1+arg%4)] {
				ex[e.Node] = true
			}
		}
		return ex
	case 3, 4:
		ex := make(map[topology.NodeID]bool, fuzzNodes)
		for n := topology.NodeID(0); n < fuzzNodes; n++ {
			ex[n] = mode%5 == 3
		}
		return ex
	}
	return nil
}

// scanWidths are the walk bounds under test; 0 stands for the ring size.
var scanWidths = [...]int{1, 2, 5, 32, 0}

func (w *admissibleWorld) scanWidth(sel int) int {
	if s := scanWidths[sel%len(scanWidths)]; s > 0 {
		return s
	}
	return w.ring.NumPeers()
}

// start picks a ring member, or now and then any node id at all: a
// start outside the ring must fail both queries.
func (w *admissibleWorld) start(sel int) topology.NodeID {
	if sel >= 240 || w.ring.NumPeers() == 0 {
		return topology.NodeID(sel % fuzzNodes)
	}
	return w.ring.peers[sel%w.ring.NumPeers()].node
}

// FuzzNearestAdmissibleMatchesRanked: bytes → a sequence of catalog and
// ring mutations (bulk syncs through RepublishAll among them)
// interleaved with queries, then a fixed sweep of queries
// over whatever state the sequence left. After every step each peer's
// entries must be in first-coordinate order. Clumped publishes put many
// nodes on one point of a 64-unit grid and half the targets sit on the
// 32-unit grid between them, so exact distance ties — decided by node id
// — are the common case, not the rare one.
func FuzzNearestAdmissibleMatchesRanked(f *testing.F) {
	f.Add([]byte{7, 3, 64, 96, 4, 3, 2, 1, 7, 0, 33, 200, 11, 4, 1, 3, 9, 200, 30})
	f.Add([]byte{1, 5, 0, 1, 6, 0, 1, 7, 5, 1, 8, 5, 1, 9, 10, 7, 1, 32, 32, 0, 2, 2, 2})
	f.Add([]byte{8, 0, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 6, 9, 8, 40, 20, 1, 64, 64, 0, 7, 3, 32, 32, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newAdmissibleWorld(t)
		b := &fuzzBytes{data: data}
		w.requireSorted(0)
		for steps := 1; b.more(); steps++ {
			switch b.next() % 9 {
			case 0: // publish anywhere
				w.publish(b.node(), float64(b.next()), float64(b.next()), float64(b.next())/255)
			case 1: // republish onto the clumped grid
				n, cell := b.node(), b.next()
				w.publish(n, float64(cell&3*64), float64(cell>>2&3*64), 0)
			case 2:
				w.cat.Unpublish(b.node())
			case 3:
				_, _ = w.ring.AddPeer(b.node()) // already joined: refused
			case 4:
				_ = w.ring.RemovePeer(b.node()) // not joined: refused
			case 5: // crash, detected and repaired
				w.cat.RepairAfterCrash([]topology.NodeID{b.node()})
			case 6: // crash not yet repaired: stored entries lost
				_, _ = w.ring.CrashPeer(b.node())
			case 7:
				start := w.start(b.next())
				x, y := b.next(), b.next()
				if x&1 == 0 {
					x, y = x&^31, y&^31
				}
				target := w.space.IdealPoint(vivaldi.Coord{float64(x), float64(y)})
				k, maxScan := 1+b.next()%12, w.scanWidth(b.next())
				mode, arg := b.next(), b.next()
				w.check(start, target, k, maxScan, w.excludeSet(mode, arg, start, target, k, maxScan, b))
			case 8: // a bulk sync of a run of nodes, clumped or anywhere
				first, count, clump := b.next(), 1+b.next()%fuzzNodes, b.next()&1 == 0
				pts := make([]costspace.Point, fuzzNodes)
				var nodes []topology.NodeID
				for i := 0; i < count; i++ {
					n := topology.NodeID((first + i) % fuzzNodes)
					x, y := float64(b.next()), float64(b.next())
					if clump {
						x, y = float64(int(x)&3*64), float64(int(y)&3*64)
					}
					nodes = append(nodes, n)
					pts[n] = w.space.NewPoint(vivaldi.Coord{x, y}, []float64{float64(b.next()) / 255})
				}
				_ = w.cat.RepublishAll(nodes, pts) // an emptied ring refuses it
			}
			w.requireSorted(steps)
		}
		for i, xy := range [][2]float64{{32, 32}, {96, 160}, {128, 128}, {250, 3}} {
			target := w.space.IdealPoint(vivaldi.Coord{xy[0], xy[1]})
			for sel := range scanWidths {
				start, maxScan := w.start(i*5+sel), w.scanWidth(sel)
				for mode := 0; mode < 5; mode++ {
					k := 1 + (i+sel+mode)%12
					w.check(start, target, k, maxScan, w.excludeSet(mode, 3, start, target, k, maxScan, b))
				}
			}
		}
	})
}

// joinedCatalog is NewNodeCatalog as it was built before NewRingOf: one
// AddPeer per node, in node order, then one Publish per node.
func joinedCatalog(t *testing.T, space *costspace.Space, pts []costspace.Point) *Catalog {
	t.Helper()
	curve, bounds, err := Frame(space, pts)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing()
	for i := range pts {
		if _, err := ring.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCatalog(ring, space, curve, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if _, err := c.Publish(topology.NodeID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// FuzzNodeCatalogMatchesJoins: two bytes pick n ≤ 2,000 nodes, and the
// rest is a pattern the nodes' points cycle through, so points repeat
// once n outgrows it; a flag snaps first coordinates onto a 16-unit
// grid, so ties in the first coordinate are common too. The bulk
// NewNodeCatalog must equal the AddPeer loop plus Publish: the same
// peers in the same order at the same positions, the same Changes(),
// each peer's entries in the same order, and the same NearestAdmissible
// answers.
func FuzzNodeCatalogMatchesJoins(f *testing.F) {
	f.Add([]byte{0, 0, 1, 10, 20, 30})
	f.Add([]byte{0, 1, 0, 200, 7, 0, 3, 99, 255})
	f.Add([]byte{0, 2, 1, 40, 40, 0, 40, 41, 9, 17, 3, 128})
	f.Add([]byte{5, 220, 1, 3, 250, 17, 96, 5, 200, 31, 64, 64, 200, 0, 130, 77, 18, 255, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		n := 1 + (b.next()<<8|b.next())%2000
		grid := b.next()&1 == 1
		pat := b.data
		if len(pat) < 3 {
			pat = []byte{0, 0, 0}
		}
		space := costspace.NewLatencyLoadSpace(100)
		pts := make([]costspace.Point, n)
		for i := range pts {
			x, y, load := pat[3*i%len(pat)], pat[(3*i+1)%len(pat)], pat[(3*i+2)%len(pat)]
			if grid {
				x &^= 15
			}
			pts[i] = space.NewPoint(vivaldi.Coord{float64(x), float64(y) + float64(i%7)}, []float64{float64(load) / 255})
		}
		bulk, err := NewNodeCatalog(space, pts)
		if err != nil {
			t.Fatal(err)
		}
		joined := joinedCatalog(t, space, pts)
		br, jr := bulk.Ring(), joined.Ring()
		if br.NumPeers() != jr.NumPeers() || br.Changes() != jr.Changes() {
			t.Fatalf("bulk ring: %d peers, %d changes; joined: %d, %d", br.NumPeers(), br.Changes(), jr.NumPeers(), jr.Changes())
		}
		for i, bp := range br.Peers() {
			jp := jr.Peers()[i]
			if bp.id != jp.id || bp.node != jp.node || bp.idx != i || jp.idx != i {
				t.Fatalf("position %d: bulk peer (id %#x, node %d, idx %d), joined (%#x, %d, %d)", i, bp.id, bp.node, bp.idx, jp.id, jp.node, jp.idx)
			}
			if q, ok := br.PeerFor(bp.node); !ok || q != bp {
				t.Fatalf("bulk ring does not find node %d's peer", bp.node)
			}
			if len(bp.flat) != len(jp.flat) {
				t.Fatalf("node %d stores %d entries in bulk, %d joined", bp.node, len(bp.flat), len(jp.flat))
			}
			for k, e := range bp.flat {
				if je := jp.flat[k]; e.Key != je.Key || e.Node != je.Node || !slices.Equal(e.Point, je.Point) {
					t.Fatalf("node %d entry %d: bulk %+v, joined %+v", bp.node, k, e, je)
				}
			}
		}
		exclude := map[topology.NodeID]bool{0: true, topology.NodeID(n / 2): true}
		for i, xy := range [][2]float64{{0, 0}, {40, 40}, {128, 200}, {255, 255}} {
			target := space.IdealPoint(vivaldi.Coord{xy[0], xy[1]})
			start := topology.NodeID(i * 7 % n)
			for _, ex := range []map[topology.NodeID]bool{nil, exclude} {
				got, gerr := bulk.NearestAdmissible(start, target, 3, 8, ex)
				want, werr := joined.NearestAdmissible(start, target, 3, 8, ex)
				if gerr != nil || werr != nil || got != want {
					t.Fatalf("target %v from %d: bulk %+v (%v), joined %+v (%v)", xy, start, got, gerr, want, werr)
				}
			}
		}
	})
}
