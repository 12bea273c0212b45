package optimizer

import (
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
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

// TestSetCoordinatesAllocCeiling pins the coordinate sync's write path:
// a sync that moves every node allocates about once per node (the
// catalog's copy of the published point) plus the one slab its points
// are carved from, not once each for the point, the copy and the
// stored entry.
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
	if ceiling := 1.05*float64(n) + 32; allocs > ceiling {
		t.Fatalf("a sync over %d nodes allocates %v, want <= %v", n, allocs, ceiling)
	}
}
