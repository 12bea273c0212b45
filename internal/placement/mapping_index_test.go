package placement

import (
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// indexedFake wraps fakeSource with a cost index, making mappers take
// the indexed fast path.
type indexedFake struct {
	*fakeSource
	ix *costindex.Index
}

func (f *indexedFake) CostIndex() *costindex.Index { return f.ix }

func newIndexedFake(f *fakeSource) *indexedFake {
	pts := make([]costspace.Point, len(f.ids))
	for i, id := range f.ids {
		pts[i] = f.points[id]
	}
	return &indexedFake{fakeSource: f, ix: costindex.Build(f.space, pts, 0)}
}

// TestIndexedMappersMatchLinearScan is the mapping identity required by
// the acceptance criteria: for random sources, targets, and exclusion
// sets, the indexed OracleMapper and VectorOnlyMapper return exactly the
// node, Candidates count, and (bitwise) Error of the linear-scan path.
func TestIndexedMappersMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		src := newFakeSource(n, int64(trial))
		idx := newIndexedFake(src)

		var exclude map[topology.NodeID]bool
		if trial%3 == 1 {
			exclude = map[topology.NodeID]bool{}
			for _, id := range src.ids {
				if rng.Intn(4) == 0 {
					exclude[id] = true
				}
			}
		}

		for q := 0; q < 5; q++ {
			target := vivaldi.Coord{rng.Float64() * 220, rng.Float64() * 220}

			for _, pair := range []struct {
				name           string
				linear, folded Mapper
			}{
				{"oracle", OracleMapper{Source: src}, OracleMapper{Source: idx}},
				{"vector-only", VectorOnlyMapper{Source: src}, VectorOnlyMapper{Source: idx}},
			} {
				wantNode, wantStats, wantErr := pair.linear.MapCoord(0, target, exclude)
				gotNode, gotStats, gotErr := pair.folded.MapCoord(0, target, exclude)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s trial %d: err %v vs %v", pair.name, trial, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if gotNode != wantNode {
					t.Fatalf("%s trial %d: node %d, want %d", pair.name, trial, gotNode, wantNode)
				}
				if gotStats != wantStats {
					t.Fatalf("%s trial %d: stats %+v, want %+v", pair.name, trial, gotStats, wantStats)
				}
			}
		}
	}
}

// TestIndexedMapperAllExcluded checks the error path through the index.
func TestIndexedMapperAllExcluded(t *testing.T) {
	src := newFakeSource(10, 5)
	idx := newIndexedFake(src)
	all := map[topology.NodeID]bool{}
	for _, id := range src.ids {
		all[id] = true
	}
	if _, _, err := (OracleMapper{Source: idx}).MapCoord(0, vivaldi.Coord{1, 2}, all); err == nil {
		t.Fatal("indexed oracle mapping with all nodes excluded succeeded")
	}
	if _, _, err := (VectorOnlyMapper{Source: idx}).MapCoord(0, vivaldi.Coord{1, 2}, all); err == nil {
		t.Fatal("indexed vector-only mapping with all nodes excluded succeeded")
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
	indexed := newIndexedFake(src)
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
		{"oracle/scan", OracleMapper{Source: src}},
		{"oracle/indexed", OracleMapper{Source: indexed}},
		{"vector-only/scan", VectorOnlyMapper{Source: src}},
		{"vector-only/indexed", VectorOnlyMapper{Source: indexed}},
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
