package placement

import (
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// TestIndexedMappersMatchLinearScan is the mapping identity: for random
// sources, targets and exclusion sets, OracleMapper and VectorOnlyMapper
// return exactly the node, Candidates count and (bitwise) Error of the
// linear scan. Half the sources duplicate points, so nodes tie exactly
// (in full space, or only in vector space) and the lowest id must win;
// the exclusion sets carry false entries and ids outside [0, n), which
// Candidates must not count.
func TestIndexedMappersMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ties := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		space := costspace.NewLatencyLoadSpace(100)
		coords := make([]vivaldi.Coord, n)
		loads := make([]float64, n)
		for i := range coords {
			coords[i] = vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200}
			loads[i] = rng.Float64() * 0.5
		}
		// An exact copy at zero load ties in full space, and is nearest
		// when the target is its coordinate; a copy of the coordinate
		// alone ties in vector space.
		var twins []int
		for k := 0; trial%2 == 0 && k < 1+n/10; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			coords[j] = coords[i]
			if k%2 == 0 {
				loads[i], loads[j] = 0, 0
			}
			twins = append(twins, j)
		}
		pts := make([]costspace.Point, n)
		for i := range pts {
			pts[i] = space.NewPoint(coords[i], []float64{loads[i]})
		}
		src := newFake(space, pts...)

		var exclude map[topology.NodeID]bool
		if trial%3 != 0 {
			exclude = map[topology.NodeID]bool{}
			for id := -3; id < n+3; id++ {
				if rng.Intn(4) == 0 {
					exclude[topology.NodeID(id)] = trial%3 == 1 || rng.Intn(2) == 0
				}
			}
		}

		for q := 0; q < 6; q++ {
			target := vivaldi.Coord{rng.Float64() * 220, rng.Float64() * 220}
			if len(twins) > 0 && q%2 == 0 {
				target = coords[twins[rng.Intn(len(twins))]]
			}
			for _, m := range []struct {
				name       string
				mapper     Mapper
				vectorOnly bool
			}{
				{"oracle", OracleMapper{Source: src}, false},
				{"vector-only", VectorOnlyMapper{Source: src}, true},
			} {
				wantNode, wantStats, wantErr := scanMap(src, m.vectorOnly, target, exclude)
				gotNode, gotStats, gotErr := m.mapper.MapCoord(0, target, exclude)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s trial %d: err %v vs %v", m.name, trial, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if gotNode != wantNode {
					t.Fatalf("%s trial %d: node %d, want %d", m.name, trial, gotNode, wantNode)
				}
				if gotStats != wantStats {
					t.Fatalf("%s trial %d: stats %+v, want %+v", m.name, trial, gotStats, wantStats)
				}
				// Count the answers a higher-id node tied.
				tp := space.IdealPoint(target)
				dist := space.Distance
				if m.vectorOnly {
					dist = space.VectorDistance
				}
				for id := int(wantNode) + 1; id < n; id++ {
					if !exclude[topology.NodeID(id)] && dist(tp, pts[id]) == dist(tp, pts[wantNode]) {
						ties[m.name]++
						break
					}
				}
			}
		}
	}
	if ties["oracle"] == 0 || ties["vector-only"] == 0 {
		t.Fatalf("no exact tie was decided (oracle %d, vector-only %d)", ties["oracle"], ties["vector-only"])
	}
}

// TestIndexedMapperAllExcluded checks the error path through the index.
func TestIndexedMapperAllExcluded(t *testing.T) {
	src := newFakeSource(10, 5)
	all := map[topology.NodeID]bool{}
	for _, id := range src.ids {
		all[id] = true
	}
	if _, _, err := (OracleMapper{Source: src}).MapCoord(0, vivaldi.Coord{1, 2}, all); err == nil {
		t.Fatal("oracle mapping with all nodes excluded succeeded")
	}
	if _, _, err := (VectorOnlyMapper{Source: src}).MapCoord(0, vivaldi.Coord{1, 2}, all); err == nil {
		t.Fatal("vector-only mapping with all nodes excluded succeeded")
	}
}

// TestMapCoordDoesNotAllocate pins the mapping hot path: every mapper
// assembles its ideal target on its own stack — no pool, no heap — and
// the DHT mapper's whole query (key, lookup, ring scan) allocates
// nothing, whatever the exclusion set looks like. A stack buffer that
// escaped through some call would show up here as one allocation per
// call.
func TestMapCoordDoesNotAllocate(t *testing.T) {
	src := newFakeSource(64, 41)
	allFalse := make(map[topology.NodeID]bool)
	for _, id := range src.ids {
		allFalse[id] = false
	}
	excludes := []struct {
		name string
		set  map[topology.NodeID]bool
	}{
		{"nil", nil},
		{"three nodes", map[topology.NodeID]bool{3: true, 17: true, 40: false}},
		{"all false", allFalse},
	}
	mappers := []struct {
		name string
		m    Mapper
	}{
		{"dht", DHTMapper{Catalog: buildDHT(t, src)}},
		{"oracle", OracleMapper{Source: src}},
		{"vector-only", VectorOnlyMapper{Source: src}},
	}
	vec := vivaldi.Coord{90, 120}
	for _, mp := range mappers {
		for _, ex := range excludes {
			allocs := testing.AllocsPerRun(50, func() {
				if _, _, err := mp.m.MapCoord(5, vec, ex.set); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, exclude %s: %v allocs per MapCoord, want 0", mp.name, ex.name, allocs)
			}
		}
	}
}
