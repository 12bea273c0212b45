package placement

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/hilbert"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// starProblem builds a star: one unpinned service connected to pinned
// endpoints with given coordinates and rates.
// QuadraticEnergy returns Σ rate·dist² over the links — the spring
// potential Relaxation minimizes, and the objective the placer tests
// hold it to.
func (p *Problem) QuadraticEnergy() float64 {
	var e float64
	for _, l := range p.Links {
		d := p.Vertices[l.A].Coord.Distance(p.Vertices[l.B].Coord)
		e += l.Rate * d * d
	}
	return e
}

// LinearCost returns Σ rate·dist over the links — the network-usage
// objective (data in transit) that the quadratic spring model surrogates.
func (p *Problem) LinearCost() float64 {
	var c float64
	for _, l := range p.Links {
		c += l.Rate * p.Vertices[l.A].Coord.Distance(p.Vertices[l.B].Coord)
	}
	return c
}

func starProblem(coords []vivaldi.Coord, rates []float64) *Problem {
	p := &Problem{}
	p.Vertices = append(p.Vertices, Vertex{}) // unpinned center, index 0
	for i, c := range coords {
		p.Vertices = append(p.Vertices, Vertex{Pinned: true, Coord: c.Clone()})
		p.Links = append(p.Links, Link{A: 0, B: i + 1, Rate: rates[i]})
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	good := starProblem([]vivaldi.Coord{{0, 0}, {10, 0}}, []float64{1, 2})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []*Problem{
		{},                                   // no vertices
		{Vertices: []Vertex{{}}},             // no pinned
		{Vertices: []Vertex{{Pinned: true}}}, // pinned without coord
		{Vertices: []Vertex{{Pinned: true, Coord: vivaldi.Coord{0, 0}}}, // bad link below
			Links: []Link{{A: 0, B: 5, Rate: 1}}},
		{Vertices: []Vertex{{Pinned: true, Coord: vivaldi.Coord{0, 0}}},
			Links: []Link{{A: 0, B: 0, Rate: 1}}},
		{Vertices: []Vertex{{Pinned: true, Coord: vivaldi.Coord{0, 0}}, {}},
			Links: []Link{{A: 0, B: 1, Rate: 0}}},
		{Vertices: []Vertex{
			{Pinned: true, Coord: vivaldi.Coord{0, 0}},
			{Pinned: true, Coord: vivaldi.Coord{1}}}}, // dim mismatch
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid problem accepted", i)
		}
	}
}

// On a star the quadratic optimum is the rate-weighted centroid in
// closed form; Relaxation must hit it in one sweep.
func TestRelaxationStarClosedForm(t *testing.T) {
	coords := []vivaldi.Coord{{0, 0}, {30, 0}, {0, 60}}
	rates := []float64{1, 2, 3}
	p := starProblem(coords, rates)
	if err := (Relaxation{}).PlaceVirtual(p); err != nil {
		t.Fatal(err)
	}
	var wantX, wantY, den float64
	for i := range coords {
		wantX += rates[i] * coords[i][0]
		wantY += rates[i] * coords[i][1]
		den += rates[i]
	}
	wantX /= den
	wantY /= den
	got := p.Vertices[0].Coord
	if math.Abs(got[0]-wantX) > 1e-6 || math.Abs(got[1]-wantY) > 1e-6 {
		t.Fatalf("relaxation star = %v, want (%v,%v)", got, wantX, wantY)
	}
}

func TestRelaxationLeavesPinnedUntouched(t *testing.T) {
	p := starProblem([]vivaldi.Coord{{1, 2}, {3, 4}}, []float64{1, 1})
	if err := (Relaxation{}).PlaceVirtual(p); err != nil {
		t.Fatal(err)
	}
	if p.Vertices[1].Coord[0] != 1 || p.Vertices[1].Coord[1] != 2 {
		t.Fatal("pinned vertex moved")
	}
}

// Chain circuit: P1 - S1 - S2 - P2. The optimum for equal rates puts the
// services evenly spaced on the segment.
func TestRelaxationChainEvenSpacing(t *testing.T) {
	p := &Problem{
		Vertices: []Vertex{
			{Pinned: true, Coord: vivaldi.Coord{0, 0}},
			{}, // S1
			{}, // S2
			{Pinned: true, Coord: vivaldi.Coord{30, 0}},
		},
		Links: []Link{
			{A: 0, B: 1, Rate: 1},
			{A: 1, B: 2, Rate: 1},
			{A: 2, B: 3, Rate: 1},
		},
	}
	if err := (Relaxation{MaxIter: 2000, Tolerance: 1e-7}).PlaceVirtual(p); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Vertices[1].Coord[0]-10) > 1e-3 || math.Abs(p.Vertices[2].Coord[0]-20) > 1e-3 {
		t.Fatalf("chain placement = %v, %v; want x=10 and x=20",
			p.Vertices[1].Coord, p.Vertices[2].Coord)
	}
}

// Relaxation must never increase the spring energy relative to the
// seeded start (Gauss–Seidel descends monotonically).
func TestRelaxationReducesEnergyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTreeProblem(rng, 3+rng.Intn(4))
		// Seed manually so we can snapshot the initial energy.
		p.prepare()
		before := p.QuadraticEnergy()
		if err := (Relaxation{}).PlaceVirtual(p); err != nil {
			return false
		}
		return p.QuadraticEnergy() <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomTreeProblem builds a random tree circuit with pinned leaves.
func randomTreeProblem(rng *rand.Rand, leaves int) *Problem {
	p := &Problem{}
	// Interior vertices: leaves-1 unpinned services in a chain/tree.
	for i := 0; i < leaves-1; i++ {
		p.Vertices = append(p.Vertices, Vertex{})
		if i > 0 {
			p.Links = append(p.Links, Link{A: i - 1, B: i, Rate: 1 + rng.Float64()*9})
		}
	}
	for i := 0; i < leaves; i++ {
		idx := len(p.Vertices)
		p.Vertices = append(p.Vertices, Vertex{
			Pinned: true,
			Coord:  vivaldi.Coord{rng.Float64() * 100, rng.Float64() * 100},
		})
		attach := rng.Intn(leaves - 1)
		p.Links = append(p.Links, Link{A: attach, B: idx, Rate: 1 + rng.Float64()*9})
	}
	return p
}

func TestWeiszfeldOptimizesLinearCost(t *testing.T) {
	// Weiszfeld targets Σ rate·d directly, so it should never be much
	// worse than Relaxation on that metric, and usually better.
	worse := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := randomTreeProblem(rng, 4)
		pw := &Problem{
			Vertices: append([]Vertex(nil), pr.Vertices...),
			Links:    append([]Link(nil), pr.Links...),
		}
		for i := range pw.Vertices {
			pw.Vertices[i].Coord = pr.Vertices[i].Coord.Clone()
		}
		if err := (Relaxation{MaxIter: 1000, Tolerance: 1e-7}).PlaceVirtual(pr); err != nil {
			t.Fatal(err)
		}
		if err := (Weiszfeld{MaxIter: 2000, Tolerance: 1e-7}).PlaceVirtual(pw); err != nil {
			t.Fatal(err)
		}
		if pw.LinearCost() > pr.LinearCost()*1.02+1e-9 {
			worse++
		}
	}
	if worse > trials/4 {
		t.Fatalf("Weiszfeld worse than Relaxation on linear cost in %d/%d trials", worse, trials)
	}
}

func TestGradientDescentApproachesRelaxation(t *testing.T) {
	coords := []vivaldi.Coord{{0, 0}, {30, 0}, {15, 45}}
	rates := []float64{2, 1, 1}
	pr := starProblem(coords, rates)
	pg := starProblem(coords, rates)
	if err := (Relaxation{}).PlaceVirtual(pr); err != nil {
		t.Fatal(err)
	}
	if err := (GradientDescent{MaxIter: 5000, Step: 0.1, Tolerance: 1e-8}).PlaceVirtual(pg); err != nil {
		t.Fatal(err)
	}
	if pr.Vertices[0].Coord.Distance(pg.Vertices[0].Coord) > 0.1 {
		t.Fatalf("gradient %v far from relaxation %v", pg.Vertices[0].Coord, pr.Vertices[0].Coord)
	}
}

func TestPlacerNamesNonEmpty(t *testing.T) {
	for _, pl := range []VirtualPlacer{Relaxation{}, Weiszfeld{}, GradientDescent{}} {
		if pl.Name() == "" {
			t.Fatalf("%T has empty name", pl)
		}
	}
}

func TestPlacersRejectInvalidProblem(t *testing.T) {
	bad := &Problem{Vertices: []Vertex{{}}}
	for _, pl := range []VirtualPlacer{Relaxation{}, Weiszfeld{}, GradientDescent{}} {
		if err := pl.PlaceVirtual(bad); err == nil {
			t.Fatalf("%s accepted invalid problem", pl.Name())
		}
	}
}

// --- mapping tests ---

type fakeSource struct {
	space  *costspace.Space
	ids    []topology.NodeID
	points []costspace.Point
	ix     *costindex.Index
}

func (f *fakeSource) Space() *costspace.Space     { return f.space }
func (f *fakeSource) CostIndex() *costindex.Index { return f.ix }

// newFake returns a source whose node i holds pts[i]: node ids are index
// ids.
func newFake(space *costspace.Space, pts ...costspace.Point) *fakeSource {
	f := &fakeSource{space: space, points: pts, ix: costindex.Build(space, pts, 0)}
	for i := range pts {
		f.ids = append(f.ids, topology.NodeID(i))
	}
	return f
}

func newFakeSource(n int, seed int64) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	space := costspace.NewLatencyLoadSpace(100)
	pts := make([]costspace.Point, n)
	for i := range pts {
		pts[i] = space.NewPoint(
			vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200},
			[]float64{rng.Float64() * 0.5},
		)
	}
	return newFake(space, pts...)
}

// scanMap is the linear-scan reference the index-backed mappers are held
// to: it visits every admissible node in id order and keeps the first
// strictly nearer one, so the lowest id wins a tie. vectorOnly ranks by
// vector-subspace distance, as VectorOnlyMapper does; Error is the
// full-space distance either way.
func scanMap(src *fakeSource, vectorOnly bool, vec vivaldi.Coord, exclude map[topology.NodeID]bool) (topology.NodeID, MapStats, error) {
	target := src.space.IdealPoint(vec)
	var best topology.NodeID
	bestDist, n := 0.0, 0
	for _, id := range src.ids {
		if exclude[id] {
			continue
		}
		d := src.space.Distance(target, src.points[id])
		if vectorOnly {
			d = src.space.VectorDistance(target, src.points[id])
		}
		if n == 0 || d < bestDist {
			best, bestDist = id, d
		}
		n++
	}
	if n == 0 {
		return 0, MapStats{}, errors.New("no candidate nodes")
	}
	return best, MapStats{Candidates: n, Error: src.space.Distance(target, src.points[best])}, nil
}

func TestOracleMapperExact(t *testing.T) {
	src := newFakeSource(50, 1)
	target := vivaldi.Coord{100, 100}
	got, stats, err := (OracleMapper{Source: src}).MapCoord(0, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := src.space.IdealPoint(target)
	for _, id := range src.ids {
		if src.space.Distance(tp, src.points[id]) < src.space.Distance(tp, src.points[got])-1e-12 {
			t.Fatalf("oracle missed nearer node %d", id)
		}
	}
	if stats.Candidates != 50 {
		t.Fatalf("candidates = %d, want 50", stats.Candidates)
	}
	if stats.Error != src.space.Distance(tp, src.points[got]) {
		t.Fatal("reported error does not match chosen node distance")
	}
}

func TestOracleMapperExclude(t *testing.T) {
	src := newFakeSource(10, 2)
	target := vivaldi.Coord{50, 50}
	first, _, err := (OracleMapper{Source: src}).MapCoord(0, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := (OracleMapper{Source: src}).MapCoord(0, target, map[topology.NodeID]bool{first: true})
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("excluded node chosen")
	}
	all := map[topology.NodeID]bool{}
	for _, id := range src.ids {
		all[id] = true
	}
	if _, _, err := (OracleMapper{Source: src}).MapCoord(0, target, all); err == nil {
		t.Fatal("mapping with all nodes excluded succeeded")
	}
}

// The Figure 3 scenario: N1 nearer in latency but overloaded; the full-
// space mappers must pick N2, the vector-only mapper must pick N1.
func TestFigure3MappingScenario(t *testing.T) {
	space := costspace.NewLatencyLoadSpace(100)
	const n1, n2 = 0, 1
	src := newFake(space,
		space.NewPoint(vivaldi.Coord{5, 0}, []float64{0.9}),   // N1: near, loaded
		space.NewPoint(vivaldi.Coord{20, 0}, []float64{0.05}), // N2: farther, idle
	)
	target := vivaldi.Coord{0, 0}
	full, _, err := (OracleMapper{Source: src}).MapCoord(0, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full != n2 {
		t.Fatalf("full-space mapping chose node %d, want N2", full)
	}
	vec, _, err := (VectorOnlyMapper{Source: src}).MapCoord(0, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vec != n1 {
		t.Fatalf("vector-only mapping chose node %d, want N1", vec)
	}
}

// buildDHT publishes the fake source's points into a catalog.
func buildDHT(t *testing.T, src *fakeSource) *dht.Catalog {
	t.Helper()
	ring, err := dht.NewRingOf(len(src.ids))
	if err != nil {
		t.Fatal(err)
	}
	var pts []costspace.Point
	for _, id := range src.ids {
		pts = append(pts, src.points[id])
	}
	bounds, err := costspace.ComputeBounds(pts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := hilbert.New(uint(src.space.Dims()), 16)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := dht.NewCatalog(ring, src.space, curve, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range src.ids {
		if _, err := cat.Publish(id, src.points[id]); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestDHTMapperSmallRingMatchesOracle(t *testing.T) {
	src := newFakeSource(12, 3)
	cat := buildDHT(t, src)
	m := DHTMapper{Catalog: cat, Candidates: 4, MaxScan: 12}
	o := OracleMapper{Source: src}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		target := vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200}
		got, stats, err := m.MapCoord(0, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := o.MapCoord(0, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: DHT chose %d, oracle %d", trial, got, want)
		}
		if stats.PeersWalked < 1 || stats.Candidates < 1 {
			t.Fatalf("stats not populated: %+v", stats)
		}
	}
}

func TestDHTMapperMappingErrorNearOracle(t *testing.T) {
	src := newFakeSource(200, 5)
	cat := buildDHT(t, src)
	m := DHTMapper{Catalog: cat, Candidates: 8, MaxScan: 40}
	o := OracleMapper{Source: src}
	rng := rand.New(rand.NewSource(6))
	var dhtErr, oraErr float64
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		target := vivaldi.Coord{rng.Float64() * 200, rng.Float64() * 200}
		_, ds, err := m.MapCoord(topology.NodeID(rng.Intn(200)), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, os, err := o.MapCoord(0, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		dhtErr += ds.Error
		oraErr += os.Error
	}
	if dhtErr > oraErr*3 {
		t.Fatalf("DHT mapping error %v far above oracle %v", dhtErr/trials, oraErr/trials)
	}
}

func TestDHTMapperExclude(t *testing.T) {
	src := newFakeSource(12, 7)
	cat := buildDHT(t, src)
	m := DHTMapper{Catalog: cat, Candidates: 4, MaxScan: 12}
	target := vivaldi.Coord{100, 100}
	first, _, err := m.MapCoord(0, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := m.MapCoord(0, target, map[topology.NodeID]bool{first: true})
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("excluded node chosen")
	}
}

func TestDHTMapperNilCatalog(t *testing.T) {
	if _, _, err := (DHTMapper{}).MapCoord(0, vivaldi.Coord{0, 0}, nil); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestMapperNames(t *testing.T) {
	for _, m := range []Mapper{OracleMapper{}, DHTMapper{}, VectorOnlyMapper{}} {
		if m.Name() == "" {
			t.Fatalf("%T has empty name", m)
		}
	}
}

func BenchmarkRelaxation4WayStar(b *testing.B) {
	coords := []vivaldi.Coord{{0, 0}, {30, 0}, {0, 60}, {90, 90}}
	rates := []float64{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		p := starProblem(coords, rates)
		if err := (Relaxation{}).PlaceVirtual(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Placers must be re-entrant: one placer value solving many Problems from
// concurrent goroutines (the batch optimizer's worker pool) must produce
// the same coordinates as solving them sequentially. Run with -race.
func TestPlacersReentrant(t *testing.T) {
	placers := []VirtualPlacer{Relaxation{}, Weiszfeld{}, GradientDescent{}}
	rng := rand.New(rand.NewSource(42))
	problems := make([]*Problem, 16)
	for i := range problems {
		coords := make([]vivaldi.Coord, 3+i%3)
		rates := make([]float64, len(coords))
		for j := range coords {
			coords[j] = vivaldi.Coord{rng.Float64() * 100, rng.Float64() * 100}
			rates[j] = 1 + rng.Float64()*9
		}
		problems[i] = starProblem(coords, rates)
	}
	for _, placer := range placers {
		want := make([]vivaldi.Coord, len(problems))
		for i, p := range problems {
			cp := cloneProblem(p)
			if err := placer.PlaceVirtual(cp); err != nil {
				t.Fatalf("%s: %v", placer.Name(), err)
			}
			want[i] = cp.Vertices[0].Coord
		}
		got := make([]vivaldi.Coord, len(problems))
		var wg sync.WaitGroup
		for i, p := range problems {
			wg.Add(1)
			go func(i int, cp *Problem) {
				defer wg.Done()
				if err := placer.PlaceVirtual(cp); err != nil {
					t.Errorf("%s concurrent: %v", placer.Name(), err)
					return
				}
				got[i] = cp.Vertices[0].Coord
			}(i, cloneProblem(p))
		}
		wg.Wait()
		for i := range problems {
			if got[i].Distance(want[i]) != 0 {
				t.Fatalf("%s problem %d: concurrent solution %v != sequential %v",
					placer.Name(), i, got[i], want[i])
			}
		}
	}
}

func cloneProblem(p *Problem) *Problem {
	cp := &Problem{Links: append([]Link(nil), p.Links...)}
	for _, v := range p.Vertices {
		cp.Vertices = append(cp.Vertices, Vertex{Pinned: v.Pinned, Coord: v.Coord.Clone()})
	}
	return cp
}

// TestRelaxationDoesNotMutateCallerCoords pins the copy-on-entry
// contract of the in-place sweep: a caller-provided initial guess for
// an unpinned vertex must survive PlaceVirtual untouched.
func TestRelaxationDoesNotMutateCallerCoords(t *testing.T) {
	guess := vivaldi.Coord{42, 42}
	p := starProblem([]vivaldi.Coord{{0, 0}, {10, 0}, {0, 10}}, []float64{1, 1, 1})
	p.Vertices[0].Coord = guess
	if err := (Relaxation{}).PlaceVirtual(p); err != nil {
		t.Fatal(err)
	}
	if guess[0] != 42 || guess[1] != 42 {
		t.Fatalf("caller's guess slice mutated to %v", guess)
	}
	if p.Vertices[0].Coord.Distance(guess) == 0 {
		t.Fatal("placement did not move off the guess")
	}
}

// TestRelaxationAllocsDoNotScaleWithSweeps verifies the per-sweep
// scratch reuse: more iterations must not mean more allocations.
func TestRelaxationAllocsDoNotScaleWithSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := randomTreeProblem(rng, 12)
	clone := func() *Problem {
		q := &Problem{Links: base.Links}
		q.Vertices = append([]Vertex(nil), base.Vertices...)
		return q
	}
	measure := func(iters int) float64 {
		r := Relaxation{MaxIter: iters, Tolerance: 1e-300}
		return testing.AllocsPerRun(20, func() {
			if err := r.PlaceVirtual(clone()); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := measure(2), measure(100)
	// Identical setup cost; the 98 extra sweeps must be free. (The
	// clone itself allocates, hence comparing rather than a fixed cap.)
	if many > few {
		t.Fatalf("allocations grew with sweep count: %v (2 iters) -> %v (100 iters)", few, many)
	}
}

func BenchmarkRelaxationPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	base := randomTreeProblem(rng, 8)
	vertices := make([]Vertex, len(base.Vertices))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(vertices, base.Vertices)
		p := &Problem{Vertices: vertices, Links: base.Links}
		if err := (Relaxation{}).PlaceVirtual(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlacersDoNotAllocateOnAReusedProblem pins the scratch the Problem
// carries (adjacency, coordinate arena, accumulator): once a Problem has
// been solved, solving it again — as the optimizer's Builder does for
// every candidate plan — costs no allocation, whichever placer runs.
func TestPlacersDoNotAllocateOnAReusedProblem(t *testing.T) {
	base := randomTreeProblem(rand.New(rand.NewSource(33)), 8)
	for _, placer := range []VirtualPlacer{Relaxation{}, Weiszfeld{MaxIter: 50}, GradientDescent{MaxIter: 50}} {
		p := &Problem{Vertices: make([]Vertex, len(base.Vertices)), Links: base.Links}
		allocs := testing.AllocsPerRun(20, func() {
			copy(p.Vertices, base.Vertices) // unpinned vertices start unplaced again
			if err := placer.PlaceVirtual(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per solve of a reused problem, want 0", placer.Name(), allocs)
		}
	}
}

// TestReusedProblemMatchesFresh pins that the recycled scratch is only
// scratch: solving problems of different shapes through one Problem
// value gives, bit for bit, what a fresh Problem gives.
func TestReusedProblemMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	reused := &Problem{}
	for i := 0; i < 30; i++ {
		base := randomTreeProblem(rng, 3+rng.Intn(8))
		for _, placer := range []VirtualPlacer{Relaxation{}, Weiszfeld{MaxIter: 50}, GradientDescent{MaxIter: 50}} {
			fresh := cloneProblem(base)
			reused.Vertices = append(reused.Vertices[:0], base.Vertices...)
			reused.Links = append(reused.Links[:0], base.Links...)
			if err := placer.PlaceVirtual(fresh); err != nil {
				t.Fatal(err)
			}
			if err := placer.PlaceVirtual(reused); err != nil {
				t.Fatal(err)
			}
			for vi := range fresh.Vertices {
				for k, want := range fresh.Vertices[vi].Coord {
					if got := reused.Vertices[vi].Coord[k]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("problem %d, %s, vertex %d dim %d: reused %v, fresh %v", i, placer.Name(), vi, k, got, want)
					}
				}
			}
		}
	}
}
