package vivaldi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

func TestCoordArithmetic(t *testing.T) {
	a := Coord{1, 2}
	b := Coord{4, 6}
	if got := a.Distance(b); got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
	if got := b.Sub(a); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Add(b); got[0] != 5 || got[1] != 8 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Scale(2); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Coord{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestCoordCloneIndependent(t *testing.T) {
	a := Coord{1, 2}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone not independent")
	}
}

func TestCoordDistanceDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	_ = Coord{1}.Distance(Coord{1, 2})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		{Dims: 0, CE: 0.25, CC: 0.25, InitialError: 1, MinError: 0.01},
		{Dims: 2, CE: 0, CC: 0.25, InitialError: 1, MinError: 0.01},
		{Dims: 2, CE: 0.25, CC: 2, InitialError: 1, MinError: 0.01},
		{Dims: 2, CE: 0.25, CC: 0.25, InitialError: 0, MinError: 0.01},
		{Dims: 2, CE: 0.25, CC: 0.25, InitialError: 1, MinError: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestUpdateIgnoresNonPositiveRTT(t *testing.T) {
	n, err := NewNode(DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	before := n.Coord()
	n.Update(Coord{10, 10}, 1, 0)
	n.Update(Coord{10, 10}, 1, -5)
	after := n.Coord()
	if before.Distance(after) != 0 {
		t.Fatal("Update with rtt <= 0 must be a no-op")
	}
}

func TestUpdateMovesTowardDistantPeer(t *testing.T) {
	// A node at origin observing a peer 10ms away at coordinate distance
	// 20 should move toward the peer (estimated > actual).
	rng := rand.New(rand.NewSource(1))
	n, _ := NewNode(DefaultConfig(), rng)
	n.coord = Coord{0, 0}
	peer := Coord{20, 0}
	n.Update(peer, 0.5, 10)
	if n.coord[0] <= 0 {
		t.Fatalf("node should have moved toward peer; coord = %v", n.coord)
	}
}

func TestUpdateMovesAwayWhenTooClose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, _ := NewNode(DefaultConfig(), rng)
	n.coord = Coord{1, 0}
	peer := Coord{0, 0}
	n.Update(peer, 0.5, 50) // true RTT far larger than current distance
	if n.coord[0] <= 1 {
		t.Fatalf("node should have moved away from peer; coord = %v", n.coord)
	}
}

func TestUpdateBreaksTieAtIdenticalCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, _ := NewNode(DefaultConfig(), rng)
	peer := Coord{0, 0} // same as the node's origin position
	n.Update(peer, 1, 10)
	if n.coord.Norm() == 0 {
		t.Fatal("node should have moved off the origin in a random direction")
	}
}

func TestErrorEstimateDecreasesWithGoodSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, _ := NewNode(DefaultConfig(), rng)
	n.coord = Coord{0, 0}
	// Feed perfectly consistent measurements: peer at distance 10, rtt 10.
	for i := 0; i < 50; i++ {
		n.coord = Coord{0, 0}
		n.Update(Coord{10, 0}, 0.1, 10)
	}
	if n.Error() >= 1.0 {
		t.Fatalf("error estimate should fall below initial 1.0, got %v", n.Error())
	}
}

func TestErrorFloored(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	n, _ := NewNode(cfg, rng)
	for i := 0; i < 500; i++ {
		n.coord = Coord{0, 0}
		n.Update(Coord{10, 0}, cfg.MinError, 10)
	}
	if n.Error() < cfg.MinError {
		t.Fatalf("error %v dropped below floor %v", n.Error(), cfg.MinError)
	}
}

// Embedding a set of points that already live in a 2-D Euclidean space
// must converge to low relative error: the space is perfectly embeddable.
func TestEmbedEuclideanGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 40
	pts := make([]Coord, n)
	for i := range pts {
		pts[i] = Coord{rng.Float64() * 100, rng.Float64() * 100}
	}
	lat := func(i, j int) float64 { return pts[i].Distance(pts[j]) }
	emb, err := Embed(n, lat, DefaultConfig(), 60, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := emb.Evaluate(lat, 2000, rng)
	if q.MedianRelErr > 0.08 {
		t.Fatalf("median relative error %v too high for perfectly embeddable input (%v)", q.MedianRelErr, q)
	}
}

// Embedding a transit-stub latency matrix should achieve the error range
// reported in the coordinates literature (median well under 30% in 2-D).
func TestEmbedTransitStub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := topology.DefaultConfig()
	cfg.StubNodes = 4 // keep the test fast: 16 + 192 = 208 nodes
	top := topology.MustGenerate(cfg, rng)
	emb, err := Embed(top.NumNodes(), top.PairLatency, DefaultConfig(), 40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := emb.Evaluate(top.PairLatency, 3000, rng)
	if q.MedianRelErr > 0.30 {
		t.Fatalf("median relative error %v too high for transit-stub input (%v)", q.MedianRelErr, q)
	}
}

func TestEmbedErrorsShrinkWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30
	pts := make([]Coord, n)
	for i := range pts {
		pts[i] = Coord{rng.Float64() * 100, rng.Float64() * 100}
	}
	lat := func(i, j int) float64 { return pts[i].Distance(pts[j]) }

	short, err := Embed(n, lat, DefaultConfig(), 2, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	long, err := Embed(n, lat, DefaultConfig(), 80, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	qs := short.Evaluate(lat, 1000, rand.New(rand.NewSource(9)))
	ql := long.Evaluate(lat, 1000, rand.New(rand.NewSource(9)))
	if ql.MedianRelErr >= qs.MedianRelErr {
		t.Fatalf("more rounds should reduce error: short=%v long=%v", qs, ql)
	}
}

func TestEmbedInputValidation(t *testing.T) {
	lat := func(i, j int) float64 { return 1 }
	rng := rand.New(rand.NewSource(1))
	if _, err := Embed(1, lat, DefaultConfig(), 1, 1, rng); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Embed(5, lat, DefaultConfig(), 0, 1, rng); err == nil {
		t.Fatal("rounds=0 accepted")
	}
	if _, err := Embed(5, lat, DefaultConfig(), 1, 0, rng); err == nil {
		t.Fatal("samples=0 accepted")
	}
	bad := DefaultConfig()
	bad.Dims = 0
	if _, err := Embed(5, lat, bad, 1, 1, rng); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewNode(bad, rng); err == nil {
		t.Fatal("NewNode with bad config accepted")
	}
}

func TestEmbedDeterministicPerSeed(t *testing.T) {
	lat := func(i, j int) float64 { return float64(i+j) + 1 }
	a, err := Embed(10, lat, DefaultConfig(), 10, 2, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Embed(10, lat, DefaultConfig(), 10, 2, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coords {
		if a.Coords[i].Distance(b.Coords[i]) != 0 {
			t.Fatalf("node %d coordinates differ across identical runs", i)
		}
	}
}

// Property: coordinate distance is symmetric and non-negative for
// arbitrary finite coordinates.
func TestDistanceMetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := Coord{ax, ay}
		b := Coord{bx, by}
		d1, d2 := a.Distance(b), b.Distance(a)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQualityString(t *testing.T) {
	q := Quality{MedianRelErr: 0.1, P90RelErr: 0.2, MeanRelErr: 0.15, Pairs: 100}
	if s := q.String(); s == "" {
		t.Fatal("empty Quality string")
	}
}

func TestEvaluateEmptyCases(t *testing.T) {
	var e Embedding
	q := e.Evaluate(func(i, j int) float64 { return 1 }, 10, rand.New(rand.NewSource(1)))
	if q.Pairs != 0 {
		t.Fatalf("empty embedding evaluated to %v", q)
	}
}

func BenchmarkEmbed200Nodes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := topology.DefaultConfig()
	cfg.StubNodes = 4
	top := topology.MustGenerate(cfg, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Embed(top.NumNodes(), top.PairLatency, DefaultConfig(), 20, 4, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestTickerMatchesEmbedRoundForRound(t *testing.T) {
	const n, rounds, samples = 24, 10, 4
	m := make([][]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := 5 + 95*rng.Float64()
			m[i][j], m[j][i] = l, l
		}
	}
	lat := func(i, j int) float64 { return m[i][j] }

	want, err := Embed(n, lat, DefaultConfig(), rounds, samples, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}

	clk := simtime.NewVirtual()
	defer clk.Stop()
	tk, err := NewTicker(n, lat, DefaultConfig(), samples, time.Second, clk, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tk.Start()
	clk.Sleep(time.Duration(rounds)*time.Second + 500*time.Millisecond)
	tk.Stop()
	if got := tk.Rounds(); got != rounds {
		t.Fatalf("ticker ran %d rounds in %ds of virtual time, want %d", got, rounds, rounds)
	}
	got := tk.Embedding()
	for i := range want.Coords {
		for k := range want.Coords[i] {
			if got.Coords[i][k] != want.Coords[i][k] {
				t.Fatalf("node %d dim %d: ticker %v != embed %v", i, k, got.Coords[i][k], want.Coords[i][k])
			}
		}
		if got.Errors[i] != want.Errors[i] {
			t.Fatalf("node %d error: ticker %v != embed %v", i, got.Errors[i], want.Errors[i])
		}
	}
	// No further rounds after Stop.
	clk.Sleep(5 * time.Second)
	if got := tk.Rounds(); got != rounds {
		t.Fatalf("ticker kept running after Stop: %d rounds", got)
	}
}

func TestTickerValidation(t *testing.T) {
	lat := func(i, j int) float64 { return 1 }
	rng := rand.New(rand.NewSource(1))
	clk := simtime.NewVirtual()
	defer clk.Stop()
	if _, err := NewTicker(4, lat, DefaultConfig(), 4, time.Second, clk, rng); err != nil {
		t.Fatalf("valid ticker rejected: %v", err)
	}
	if _, err := NewTicker(1, lat, DefaultConfig(), 4, time.Second, clk, rng); err == nil {
		t.Fatal("1-node ticker accepted")
	}
	if _, err := NewTicker(4, lat, DefaultConfig(), 0, time.Second, clk, rng); err == nil {
		t.Fatal("0 samples accepted")
	}
	if _, err := NewTicker(4, lat, DefaultConfig(), 4, 0, clk, rng); err == nil {
		t.Fatal("0 interval accepted")
	}
	if _, err := NewTicker(4, lat, Config{}, 4, time.Second, clk, rng); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewTicker(4, lat, DefaultConfig(), 4, time.Second, nil, rng); err == nil {
		t.Fatal("ticker without a clock accepted")
	}
}
