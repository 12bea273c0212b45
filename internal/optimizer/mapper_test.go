package optimizer

import (
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// fixedMapper is a mapper the seam knows nothing about.
type fixedMapper struct{ node topology.NodeID }

func (m *fixedMapper) Name() string { return "fixed" }

func (m *fixedMapper) MapCoord(topology.NodeID, vivaldi.Coord, map[topology.NodeID]bool) (topology.NodeID, placement.MapStats, error) {
	return m.node, placement.MapStats{}, nil
}

// TestMapperOn is the seam's whole rule: nil becomes the DHT mapper when
// there is a catalog and the oracle otherwise, a SourceMapper reads the
// given source, and any other mapper is used as given — for every view
// an entry point reads.
func TestMapperOn(t *testing.T) {
	withDHT, _ := testSetup(t, 3, true)
	plain, _ := testSetup(t, 3, false)
	cat := withDHT.Catalog()
	dhtMapper := placement.DHTMapper{Catalog: cat, MaxScan: 48}
	custom := &fixedMapper{node: 2}
	for _, env := range []*Env{withDHT, plain} {
		views := map[string]placement.NodeSource{"env": env, "shadow": NewShadow(env), "snapshot": env.Freeze()}
		for view, src := range views {
			var wantNil placement.Mapper = placement.OracleMapper{Source: src}
			if env.Catalog() != nil {
				wantNil = placement.DHTMapper{Catalog: env.Catalog()}
			}
			for _, tc := range []struct {
				name string
				in   placement.Mapper
				want placement.Mapper
			}{
				{"nil", nil, wantNil},
				{"oracle", placement.OracleMapper{Source: env}, placement.OracleMapper{Source: src}},
				{"vector-only", placement.VectorOnlyMapper{Source: env}, placement.VectorOnlyMapper{Source: src}},
				{"dht", dhtMapper, dhtMapper},
				{"custom", custom, custom},
			} {
				if got := mapperOn(tc.in, env.Catalog(), src); got != tc.want {
					t.Errorf("catalog=%v %s: mapperOn(%s) = %#v, want %#v",
						env.Catalog() != nil, view, tc.name, got, tc.want)
				}
			}
		}
	}
}

// TestSweepBuildsTheIndexOnlyForTheOracle is the one-view contract for
// the k-NN index on the re-planning path: a sweep that maps through the
// DHT reads no index, so neither its shadow nor the live env builds
// one, and the live env has nothing to patch on later load changes. An
// oracle sweep shares the live env's epoch-current index and patches
// only its own copy; a shadow first read after a load shift rebuilds
// privately, and answers exactly what a linear scan of it does.
func TestSweepBuildsTheIndexOnlyForTheOracle(t *testing.T) {
	env, dep, ro := incrFixture(t, 7, true)
	stubs := env.Topo.StubNodeIDs()
	env.idx.Store(nil) // the fixture's oracle deploys built one
	env.SetBackgroundLoad(stubs[1], 5.0)
	ro.Mapper = placement.DHTMapper{Catalog: env.Catalog()}
	if _, err := ro.Plan(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ro.PlanIncremental(); err != nil {
		t.Fatal(err)
	}
	victim := dep.Circuits()[1].UnpinnedServices()[0].Node
	if _, err := ro.PlanEvacuation(map[topology.NodeID]bool{victim: true}); err != nil {
		t.Fatal(err)
	}
	env.SetBackgroundLoad(stubs[2], 3.0)
	if env.idx.Load() != nil {
		t.Fatal("a DHT-mapped sweep built a k-NN index on the live env")
	}

	ro.Mapper = placement.OracleMapper{Source: env}
	live := env.CostIndex()
	sh := NewShadow(env)
	if sh.idx != nil {
		t.Fatal("a new shadow took an index before anything read one")
	}
	vec := env.VecCoord(stubs[0])
	if _, _, err := ro.sweepMapper(sh).MapCoord(stubs[0], vec, nil); err != nil {
		t.Fatal(err)
	}
	if sh.idx != live {
		t.Fatal("an oracle sweep did not share the live env's epoch-current index")
	}
	sh.ShiftLoad(stubs[1], stubs[0], 50)
	if sh.idx == live || sh.idx.NumPatched() == 0 {
		t.Fatal("a load shift did not patch the shadow's own copy")
	}
	if _, err := ro.Plan(); err != nil {
		t.Fatal(err)
	}
	if env.idx.Load() != live || live.NumPatched() != 0 {
		t.Fatal("an oracle sweep changed the live env's index")
	}

	late := NewShadow(env)
	late.ShiftLoad(stubs[1], stubs[0], 50)
	if ix := late.CostIndex(); ix == live || ix.NumPatched() != 0 {
		t.Fatal("a shadow read after a load shift did not rebuild privately")
	}
	fresh := placement.OracleMapper{Source: freshIndex(late, env.Topo.NumNodes())}
	for _, n := range stubs {
		got, gs, err := ro.sweepMapper(late).MapCoord(n, env.VecCoord(n), nil)
		want, ws, err2 := fresh.MapCoord(n, env.VecCoord(n), nil)
		if err != nil || err2 != nil || got != want || gs != ws {
			t.Fatalf("node %d: indexed shadow maps to %d (%+v, %v), a fresh index to %d (%+v, %v)",
				n, got, gs, err, want, ws, err2)
		}
	}
}
