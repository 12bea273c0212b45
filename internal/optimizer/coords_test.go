package optimizer

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// coordsFixture embeds coordinates the way X17 does: a ticker-style
// gossip embedding over O(1) latency lookups.
func coordsFixture(t *testing.T) (*topology.Topology, []vivaldi.Coord) {
	t.Helper()
	topo := topology.MustGenerate(topology.DefaultConfig(), rand.New(rand.NewSource(11)))
	emb, err := vivaldi.Embed(topo.NumNodes(), topo.PairLatency, vivaldi.DefaultConfig(), 30, 4, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	return topo, emb.Coords
}

func pointsEqual(a, b costspace.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewEnvFromCoords(t *testing.T) {
	topo, coords := coordsFixture(t)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	env, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatalf("NewEnvFromCoords: %v", err)
	}
	if got := len(env.NodeIDs()); got != topo.NumNodes() {
		t.Fatalf("env has %d nodes, topo %d", got, topo.NumNodes())
	}
	if q := env.EmbeddingQuality; q.Pairs == 0 || q.MedianRelErr <= 0 || q.MedianRelErr > 1 {
		t.Fatalf("implausible embedding quality: %+v", q)
	}
	if env.Catalog() == nil {
		t.Fatal("UseDHT config produced no catalog")
	}
	// The sparse path must not have materialized a dense matrix as a
	// side effect; deterministic rebuild sanity: same inputs, same env.
	env2, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatalf("NewEnvFromCoords (second): %v", err)
	}
	for i, id := range env.NodeIDs() {
		if !pointsEqual(env.Point(id), env2.Point(id)) {
			t.Fatalf("node %d: points differ across identical constructions", i)
		}
	}
}

// TestCatalogWritesNoSharedPoint guards the in-place republish: the
// catalog copies a moved node's point into its own copy of the node's
// entry, so it must never hold a point the env or a snapshot reads. A
// snapshot frozen before a coordinate sync and load changes keeps its
// points to the bit, and no catalog entry shares its backing array with
// the env's point or the snapshot's.
func TestCatalogWritesNoSharedPoint(t *testing.T) {
	topo, coords := coordsFixture(t)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatal(err)
	}
	snap := env.Freeze()
	n := len(coords)
	before := make([][]uint64, n)
	for i := range before {
		for _, v := range snap.Point(topology.NodeID(i)) {
			before[i] = append(before[i], math.Float64bits(v))
		}
	}
	moved := make([]vivaldi.Coord, n)
	for i, c := range coords {
		moved[i] = c.Add(vivaldi.Coord{1.5, -0.75})
	}
	if _, err := env.SetCoordinates(moved); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		env.SetBackgroundLoad(topology.NodeID(i), 0.3)
	}
	for i := range before {
		node := topology.NodeID(i)
		for k, v := range snap.Point(node) {
			if math.Float64bits(v) != before[i][k] {
				t.Fatalf("node %d: snapshot point changed to %v", i, snap.Point(node))
			}
		}
		e, ok := env.Catalog().PublishedEntry(node)
		if !ok {
			t.Fatalf("node %d is not published", i)
		}
		if &e.Point[0] == &env.Point(node)[0] || &e.Point[0] == &snap.Point(node)[0] {
			t.Fatalf("node %d: the catalog's entry shares its point with the env or the snapshot", i)
		}
		for k, v := range env.Point(node) {
			if e.Point[k] != v {
				t.Fatalf("node %d: published %v, env reads %v", i, e.Point, env.Point(node))
			}
		}
	}
}

func TestSetCoordinates(t *testing.T) {
	topo, coords := coordsFixture(t)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	env, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatalf("NewEnvFromCoords: %v", err)
	}

	// Identical coordinates: a no-op sync, no epoch churn.
	before := env.Epoch()
	if n, err := env.SetCoordinates(coords); err != nil || n != 0 {
		t.Fatalf("no-op SetCoordinates = (%d, %v), want (0, nil)", n, err)
	}
	if env.Epoch() != before {
		t.Fatal("no-op SetCoordinates bumped the epoch")
	}

	// Move two coordinates: exactly those nodes refresh and dirty.
	moved := append([]vivaldi.Coord(nil), coords...)
	moved[3] = moved[3].Add(vivaldi.Coord{1, 1})
	moved[7] = moved[7].Add(vivaldi.Coord{-2, 0.5})
	sinceEpoch := env.Epoch()
	n, err := env.SetCoordinates(moved)
	if err != nil || n != 2 {
		t.Fatalf("SetCoordinates = (%d, %v), want (2, nil)", n, err)
	}
	if env.Epoch() == sinceEpoch {
		t.Fatal("SetCoordinates did not bump the epoch")
	}
	dirty := env.DirtySince(sinceEpoch)
	ids := map[topology.NodeID]bool{}
	for _, d := range dirty {
		ids[d.Node] = true
		if d.LoadOnly {
			t.Fatalf("coordinate move logged LoadOnly for node %d", d.Node)
		}
	}
	if !ids[3] || !ids[7] {
		t.Fatalf("dirty log %v missing moved nodes 3 and 7", dirty)
	}
	// Points must reflect the new coordinates (and the catalog republish
	// answers from them).
	p := env.Point(3)
	if got := env.Space().NewPoint(moved[3], []float64{env.Load(3)}); !pointsEqual(got, p) {
		t.Fatalf("node 3 point %v not rebuilt from new coord (want %v)", p, got)
	}

	// Length mismatch rejected.
	if _, err := env.SetCoordinates(moved[:5]); err == nil {
		t.Fatal("short coords accepted")
	}

	// Frozen snapshots must refuse the mutator.
	defer func() {
		if recover() == nil {
			t.Fatal("SetCoordinates on a frozen Env did not panic")
		}
	}()
	_, _ = env.Freeze().SetCoordinates(moved)
}

// TestSetCoordinatesReturnsPublishError: a sync that moves fewer than a
// quarter of the nodes republishes node by node, and a catalog that
// cannot publish (its ring emptied here) makes it return the error, as
// the bulk path's RepublishAll does, instead of panicking. The moved
// points are installed all the same.
func TestSetCoordinatesReturnsPublishError(t *testing.T) {
	topo, coords := coordsFixture(t)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatal(err)
	}
	ring := env.Catalog().Ring()
	for _, p := range append([]*dht.Peer(nil), ring.Peers()...) {
		if _, err := ring.CrashPeer(p.Node()); err != nil {
			t.Fatal(err)
		}
	}
	moved := append([]vivaldi.Coord(nil), coords...)
	moved[3] = moved[3].Add(vivaldi.Coord{1, 1})
	moved[7] = moved[7].Add(vivaldi.Coord{-2, 0.5})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("SetCoordinates panicked: %v", r)
		}
	}()
	n, err := env.SetCoordinates(moved)
	if err == nil || n != 2 {
		t.Fatalf("SetCoordinates on an empty ring = (%d, %v), want (2, an error)", n, err)
	}
	if want := env.Space().NewPoint(moved[7], []float64{env.Load(7)}); !pointsEqual(env.Point(7), want) {
		t.Fatalf("node 7 point %v, want %v", env.Point(7), want)
	}
}

// TestCrashedNodeStaysUnpublished: a node that crash repair retired from
// the catalog stays out of it when the Env refreshes its point — a
// service's load released on it, load drift, a sync that moves it alone
// (republished node by node) and one that moves every node (one bulk
// RepublishAll) — until Catalog.Rejoin brings it back, after which its
// entry follows its point again.
func TestCrashedNodeStaysUnpublished(t *testing.T) {
	env, _ := testSetup(t, 7, true)
	cat := env.Catalog()
	const dead topology.NodeID = 5
	all := cat.NumPublished()
	requireRetired := func(step string) {
		t.Helper()
		if _, ok := cat.PublishedEntry(dead); ok || cat.NumPublished() != all-1 {
			t.Fatalf("after %s: node %d published %v, %d nodes published, want %d", step, dead, ok, cat.NumPublished(), all-1)
		}
	}
	env.AddServiceLoad(dead, 10)
	cat.RepairAfterCrash([]topology.NodeID{dead})
	requireRetired("the repair")
	env.RemoveServiceLoad(dead, 10)
	requireRetired("a load release")
	env.SetBackgroundLoad(dead, 0.3)
	requireRetired("load drift")
	moved := slices.Clone(env.vec)
	moved[dead] = moved[dead].Add(vivaldi.Coord{1, 1})
	if _, err := env.SetCoordinates(moved); err != nil {
		t.Fatal(err)
	}
	requireRetired("a one-node sync")
	moved = slices.Clone(moved)
	for i := range moved {
		moved[i] = moved[i].Add(vivaldi.Coord{-1, 2})
	}
	if n, err := env.SetCoordinates(moved); err != nil || n != len(moved) {
		t.Fatalf("bulk sync = (%d, %v), want (%d, nil)", n, err, len(moved))
	}
	requireRetired("a bulk sync")

	if err := cat.Rejoin(dead, env.Point(dead)); err != nil {
		t.Fatal(err)
	}
	env.AddServiceLoad(dead, 10)
	e, ok := cat.PublishedEntry(dead)
	if !ok || cat.NumPublished() != all || !pointsEqual(e.Point, env.Point(dead)) {
		t.Fatalf("after Rejoin and a load change: node %d published %v with %v, want %v; %d nodes published, want %d",
			dead, ok, e.Point, env.Point(dead), cat.NumPublished(), all)
	}
}

// TestSetCoordinatesAllocCeiling pins the coordinate sync's write path:
// a sync that moves every node allocates the one slab its points are
// carved from and the growth of its moved-node list, nothing per node —
// the catalog copies each point into its own copy of the entry. It took
// one allocation per node more while a republish cloned the point
// (9 over 592 nodes now, 601 then).
func TestSetCoordinatesAllocCeiling(t *testing.T) {
	topo, coords := coordsFixture(t)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	env, err := NewEnvFromCoords(topo, stats, DefaultEnvConfig(13), coords)
	if err != nil {
		t.Fatalf("NewEnvFromCoords: %v", err)
	}
	// AllocsPerRun makes one warm-up sync before the one it counts; each
	// sync moves every node off where the one before left it.
	n := len(coords)
	syncs := make([][]vivaldi.Coord, 2)
	for k := range syncs {
		syncs[k] = make([]vivaldi.Coord, n)
		for i, c := range coords {
			syncs[k][i] = c.Add(vivaldi.Coord{float64(k+1) * 0.5, -float64(k+1) * 0.25})
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		if moved, err := env.SetCoordinates(syncs[next]); err != nil || moved != n {
			t.Fatalf("sync %d moved %d of %d nodes: %v", next, moved, n, err)
		}
		next++
	})
	if ceiling := 32.0; allocs > ceiling {
		t.Fatalf("a sync over %d nodes allocates %v, want <= %v", n, allocs, ceiling)
	}
}
