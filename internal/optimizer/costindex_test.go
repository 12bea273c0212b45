package optimizer

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// freshSource is a NodeSource over an index built from scratch: the
// reference a versioned, patched or privately rebuilt index must agree
// with (costindex's own fuzz target holds a fresh build to brute force).
type freshSource struct {
	space *costspace.Space
	ix    *costindex.Index
}

func (f freshSource) Space() *costspace.Space     { return f.space }
func (f freshSource) CostIndex() *costindex.Index { return f.ix }

// freshIndex builds a freshSource over the current points of src's n
// nodes.
func freshIndex(src interface {
	Space() *costspace.Space
	Point(topology.NodeID) costspace.Point
}, n int) freshSource {
	pts := make([]costspace.Point, n)
	for i := range pts {
		pts[i] = src.Point(topology.NodeID(i))
	}
	return freshSource{space: src.Space(), ix: costindex.Build(src.Space(), pts, 0)}
}

// TestSnapshotIndexMatchesLinearScanAcrossMutations drives load churn
// against a live environment and checks after every mutation that
// index-backed mapping equals mapping over a freshly built index — i.e.
// the epoch versioning (rebuilds and single-point patches) never serves
// stale coordinates.
func TestSnapshotIndexMatchesLinearScanAcrossMutations(t *testing.T) {
	env, _ := testSetup(t, 17, false)
	rng := rand.New(rand.NewSource(23))
	n := env.Topo.NumNodes()

	checkIdentity := func(when string) {
		t.Helper()
		fresh := placement.OracleMapper{Source: freshIndex(env.Snapshot, n)}
		indexed := placement.OracleMapper{Source: env.Snapshot}
		for q := 0; q < 5; q++ {
			vec := vivaldi.Coord{rng.NormFloat64() * 60, rng.NormFloat64() * 60}
			wn, ws, werr := fresh.MapCoord(0, vec, nil)
			gn, gs, gerr := indexed.MapCoord(0, vec, nil)
			if werr != nil || gerr != nil {
				t.Fatalf("%s: map errors %v / %v", when, werr, gerr)
			}
			if gn != wn || gs != ws {
				t.Fatalf("%s: indexed map = node %d stats %+v, fresh index = node %d stats %+v",
					when, gn, gs, wn, ws)
			}
		}
	}

	checkIdentity("initial")
	if v := env.CostIndex().Version(); v != env.Epoch() {
		t.Fatalf("index version %d, epoch %d", v, env.Epoch())
	}

	for step := 0; step < 40; step++ {
		node := topology.NodeID(rng.Intn(n))
		switch step % 3 {
		case 0:
			env.SetBackgroundLoad(node, rng.Float64()*0.9)
		case 1:
			env.AddServiceLoad(node, rng.Float64()*400)
		case 2:
			env.NoteStatsChanged() // moves no points; index must re-stamp
		}
		checkIdentity("after mutation")
		if v := env.CostIndex().Version(); v != env.Epoch() {
			t.Fatalf("step %d: index version %d, epoch %d", step, v, env.Epoch())
		}
	}

	// Re-embedding moves every point: the index must still agree after
	// the wholesale invalidation it causes.
	env.Topo.PerturbLatencies(rng, 0.3)
	reembed(t, env)
	checkIdentity("after re-embedding")
}

// TestFrozenSnapshotIndexSharedConcurrently builds a frozen snapshot and
// has many goroutines race the lazy index build while mapping (run with
// -race in CI): all results must equal the live environment's
// sequential mapping, and the frozen env must keep serving the epoch it
// was frozen at even while the live env mutates.
func TestFrozenSnapshotIndexSharedConcurrently(t *testing.T) {
	env, _ := testSetup(t, 19, false)
	snap := env.Freeze()

	targets := make([]vivaldi.Coord, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range targets {
		targets[i] = vivaldi.Coord{rng.NormFloat64() * 60, rng.NormFloat64() * 60}
	}
	want := make([]topology.NodeID, len(targets))
	for i, vec := range targets {
		n, _, err := (placement.OracleMapper{Source: env.Snapshot}).MapCoord(0, vec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}

	// Mutate the live env: the frozen snapshot must not notice.
	env.SetBackgroundLoad(0, 0.99)

	const goroutines = 16
	got := make([][]topology.NodeID, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			m := placement.OracleMapper{Source: snap.Snapshot}
			out := make([]topology.NodeID, len(targets))
			for i, vec := range targets {
				n, _, err := m.MapCoord(0, vec, nil)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = n
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range targets {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d target %d: node %d, want %d", g, i, got[g][i], want[i])
			}
		}
	}
}

// TestSnapshotIndexPatching checks the single-point churn path: an
// epoch bump from one load change patches the already-built index
// instead of rebuilding, and the patch overlay collapses when the point
// moves back.
func TestSnapshotIndexPatching(t *testing.T) {
	env, _ := testSetup(t, 29, false)
	ix0 := env.CostIndex()
	if ix0.NumPatched() != 0 {
		t.Fatalf("fresh index has %d patches", ix0.NumPatched())
	}
	env.SetBackgroundLoad(3, 0.7)
	ix1 := env.CostIndex()
	if ix1.Version() != env.Epoch() {
		t.Fatalf("patched index version %d, epoch %d", ix1.Version(), env.Epoch())
	}
	if ix1.NumPatched() != 1 {
		t.Fatalf("after one move: %d patches, want 1", ix1.NumPatched())
	}
	// NodeIDs must stay the construction-time slice (no per-call alloc).
	a, b := env.NodeIDs(), env.NodeIDs()
	if &a[0] != &b[0] {
		t.Fatal("NodeIDs returned distinct backing arrays")
	}
	if fa := env.Freeze().NodeIDs(); &fa[0] != &a[0] {
		t.Fatal("frozen snapshot does not share the NodeIDs slice")
	}
}
