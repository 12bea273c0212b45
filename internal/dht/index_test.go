package dht

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// TestSuccessorMatchesSortSearchUnderChurn grows a ring from empty to
// 300 peers, past every power of two up to 256, and shrinks it back to
// empty, by joins, leaves and crashes mixed. After every change each
// peer's idx is its slice position, and successor, which starts from
// the head table, answers what sort.Search over the id-sorted peers
// does, wrapped, for every peer id, each id ± 1 and every bucket
// boundary j<<shift and the key before it.
func TestSuccessorMatchesSortSearchUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := NewRing()
	var keys []ID
	check := func(step int) {
		t.Helper()
		keys = keys[:0]
		for i, p := range r.peers {
			if p.idx != i {
				t.Fatalf("step %d: peer %d cached idx %d, want %d", step, p.node, p.idx, i)
			}
			keys = append(keys, p.id-1, p.id, p.id+1)
		}
		for j := range r.head {
			keys = append(keys, ID(j)<<r.shift-1, ID(j)<<r.shift)
		}
		for _, k := range keys {
			want := sort.Search(len(r.peers), func(i int) bool { return r.peers[i].id >= k }) % len(r.peers)
			if got := r.successor(k); got != r.peers[want] {
				t.Fatalf("step %d, %d peers: successor(%#x) at %d, want %d", step, len(r.peers), uint64(k), got.idx, want)
			}
		}
	}
	check(0)
	next, grow, step := topology.NodeID(0), true, 0
	for ; grow || len(r.peers) > 0; step++ {
		if len(r.peers) == 300 {
			grow = false
		}
		switch n := len(r.peers); {
		case n == 0 || (rng.Intn(4) == 0) != grow:
			if _, err := r.AddPeer(next); err != nil {
				t.Fatal(err)
			}
			next++
		case rng.Intn(2) == 0:
			if err := r.RemovePeer(r.peers[rng.Intn(n)].node); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := r.CrashPeer(r.peers[rng.Intn(n)].node); err != nil {
				t.Fatal(err)
			}
		}
		check(step + 1)
	}
	if step < 200 {
		t.Fatalf("only %d membership changes", step)
	}
}

// checkOwnership asserts the catalog's stored state: every stored entry
// sits at the owner of its key and is the published entry of its node,
// and each published node is stored exactly once.
func checkOwnership(t *testing.T, r *Ring, c *Catalog, when string) {
	t.Helper()
	stored := 0
	copies := map[topology.NodeID]int{}
	for _, p := range r.peers {
		for _, e := range p.flat {
			if owner := r.Owner(e.Key); owner != p {
				t.Fatalf("%s: node %d's entry sits at peer %d, key owner is %d", when, e.Node, p.node, owner.node)
			}
			if pub, ok := c.PublishedEntry(e.Node); !ok || pub.Key != e.Key {
				t.Fatalf("%s: peer %d stores node %d under %#x, not its published entry", when, p.node, e.Node, uint64(e.Key))
			}
			copies[e.Node]++
			stored++
		}
	}
	for n, k := range copies {
		if k != 1 {
			t.Fatalf("%s: node %d stored %d times", when, n, k)
		}
	}
	if stored != c.NumPublished() {
		t.Fatalf("%s: stores hold %d entries, %d published", when, stored, c.NumPublished())
	}
}

// TestFlatStoreOwnershipUnderChurn interleaves publishes, republish
// moves, unpublishes, and peer joins/leaves, checking after every step
// that each published node is stored once, at the owner of its key.
func TestFlatStoreOwnershipUnderChurn(t *testing.T) {
	env := newTestEnv(t, 24, 5)
	rng := rand.New(rand.NewSource(6))
	nextPeer := topology.NodeID(24)
	for step := 0; step < 150; step++ {
		switch rng.Intn(5) {
		case 0: // republish: move a node's coordinate
			id := topology.NodeID(rng.Intn(24))
			p := env.space.NewPoint(
				vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200},
				[]float64{rng.Float64()},
			)
			if _, err := env.catalog.Publish(id, p); err != nil {
				t.Fatal(err)
			}
		case 1: // unpublish, then republish at the old point
			id := topology.NodeID(rng.Intn(24))
			if e, ok := env.catalog.PublishedEntry(id); ok {
				env.catalog.Unpublish(id)
				if _, err := env.catalog.Publish(id, e.Point); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // join a fresh peer (entries migrate)
			if _, err := env.ring.AddPeer(nextPeer); err != nil {
				t.Fatal(err)
			}
			nextPeer++
		case 3: // leave, if we have spares (entries transfer)
			if env.ring.NumPeers() > 24 {
				victim := env.ring.peers[rng.Intn(env.ring.NumPeers())].node
				if err := env.ring.RemovePeer(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkOwnership(t, env.ring, env.catalog, "after churn step")
	}
}

func entriesEqual(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || got[i].Key != want[i].Key {
			t.Fatalf("%s: entry %d = node %d key %#x, want node %d key %#x",
				what, i, got[i].Node, uint64(got[i].Key), want[i].Node, uint64(want[i].Key))
		}
	}
}

// TestNearestNodesMatchesCollectAndSort checks the bounded-selection
// ranking against the algorithm it replaced: collect the full
// oversample, sort every entry by (distance, node), truncate to n. Walk
// statistics must match too, since both paths stop at the same
// oversample threshold.
func TestNearestNodesMatchesCollectAndSort(t *testing.T) {
	env := newTestEnv(t, 48, 12)
	rng := rand.New(rand.NewSource(13))
	c := env.catalog
	buf := make([]Entry, 0, 16)
	for trial := 0; trial < 40; trial++ {
		target := env.space.IdealPoint(vivaldi.Coord{rng.Float64() * 220, rng.Float64() * 220})
		start := topology.NodeID(rng.Intn(48))
		n := 1 + rng.Intn(10)
		scan := 1 + rng.Intn(20)

		ref, err := walkEntries(c, start, target, scan, oversample(n))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ref.Entries, func(i, j int) bool {
			di := c.space.Distance(target, ref.Entries[i].Point)
			dj := c.space.Distance(target, ref.Entries[j].Point)
			if di != dj {
				return di < dj
			}
			return ref.Entries[i].Node < ref.Entries[j].Node
		})
		if len(ref.Entries) > n {
			ref.Entries = ref.Entries[:n]
		}

		got, err := c.NearestNodesAppend(start, target, n, scan, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.LookupHops != ref.LookupHops || got.PeersWalked != ref.PeersWalked {
			t.Fatalf("trial %d: walk stats (%d,%d), want (%d,%d)", trial,
				got.LookupHops, got.PeersWalked, ref.LookupHops, ref.PeersWalked)
		}
		entriesEqual(t, "NearestNodesAppend", got.Entries, ref.Entries)
		buf = got.Entries[:0]
	}
}

// TestConcurrentCatalogQueries exercises the catalog's documented
// concurrency contract under the race detector: many goroutines run
// NearestNodesAppend and NearestAdmissible (with and without the
// nearest node excluded) against a static catalog, and every result
// must equal the sequential answer. Publishes must not run concurrently with
// queries — that side of the contract is unchanged.
func TestConcurrentCatalogQueries(t *testing.T) {
	env := newTestEnv(t, 40, 15)
	c := env.catalog
	rng := rand.New(rand.NewSource(16))
	type q struct {
		target costspace.Point
		start  topology.NodeID
		n      int
	}
	qs := make([]q, 32)
	for i := range qs {
		qs[i] = q{
			target: env.space.IdealPoint(vivaldi.Coord{rng.Float64() * 220, rng.Float64() * 220}),
			start:  topology.NodeID(rng.Intn(40)),
			n:      1 + rng.Intn(8),
		}
	}
	wantNear := make([][]Entry, len(qs))
	wantNear2 := make([][]Entry, len(qs)) // NearestNodes(n+1)
	for i, qq := range qs {
		res, err := c.NearestNodes(qq.start, qq.target, qq.n, 16)
		if err != nil {
			t.Fatal(err)
		}
		wantNear[i] = res.Entries
		if res, err = c.NearestNodes(qq.start, qq.target, qq.n+1, 16); err != nil {
			t.Fatal(err)
		}
		wantNear2[i] = res.Entries
	}

	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			var buf []Entry
			for i, qq := range qs {
				res, err := c.NearestNodesAppend(qq.start, qq.target, qq.n, 16, buf[:0])
				if err != nil {
					t.Error(err)
					return
				}
				for j := range res.Entries {
					if res.Entries[j].Node != wantNear[i][j].Node {
						t.Errorf("query %d: concurrent NearestNodes diverged", i)
						return
					}
				}
				buf = res.Entries
				// The ranked list's first; then, with that node excluded
				// and one more candidate, as the mapper asks, the second
				// of the list that is one longer.
				for _, ex := range []struct {
					exclude map[topology.NodeID]bool
					want    topology.NodeID
				}{
					{nil, wantNear[i][0].Node},
					{map[topology.NodeID]bool{wantNear2[i][0].Node: true}, wantNear2[i][1].Node},
				} {
					near, err := c.NearestAdmissible(qq.start, qq.target, qq.n+len(ex.exclude), 16, ex.exclude)
					if err != nil {
						t.Error(err)
						return
					}
					if !near.Found || near.Node != ex.want {
						t.Errorf("query %d: concurrent NearestAdmissible diverged", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
