package exp

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/workload"
)

func TestTableFormatting(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 3.14159265)
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "b", "3.142", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, "two")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "a,b" || lines[1] != "1,two" {
		t.Fatalf("csv = %q", buf.String())
	}
}

// parse a float cell.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		// Allow "inf" spellings etc.
		t.Fatalf("cell (%d,%d) = %q not a float: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestFig1SmallShape(t *testing.T) {
	tb, err := Fig1(Fig1Params{Scale: Small, Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// usage ratio (col 5) should average >= ~1: integrated not worse.
	var sum float64
	for i := range tb.Rows {
		sum += cell(t, tb, i, 5)
	}
	if mean := sum / 5; mean < 0.95 {
		t.Fatalf("mean two-step/integrated usage ratio %v < 0.95", mean)
	}
}

func TestFig2SmallShape(t *testing.T) {
	var pts bytes.Buffer
	tb, err := Fig2(Fig2Params{Scale: Small, Seed: 2, PointsCSV: &pts})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Node count row must match the small topology (44 nodes).
	if tb.Rows[0][1] != "44" {
		t.Fatalf("node count = %q, want 44", tb.Rows[0][1])
	}
	lines := strings.Split(strings.TrimSpace(pts.String()), "\n")
	if len(lines) != 45 { // header + 44 nodes
		t.Fatalf("points csv lines = %d, want 45", len(lines))
	}
	// Embedding error must be sane.
	med, err := strconv.ParseFloat(tb.Rows[4][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if med <= 0 || med > 0.5 {
		t.Fatalf("median embedding error %v out of expected range", med)
	}
}

func TestFig3SmallShape(t *testing.T) {
	tb, err := Fig3(Fig3Params{Scale: Small, Seed: 3, Trials: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 mappers", len(tb.Rows))
	}
	byName := map[string]int{}
	for i, r := range tb.Rows {
		byName[r[0]] = i
	}
	fullPct := cell(t, tb, byName["hilbert-dht"], 1)
	oraclePct := cell(t, tb, byName["oracle"], 1)
	vecPct := cell(t, tb, byName["vector-only"], 1)
	if vecPct < 90 {
		t.Fatalf("vector-only picked overloaded node only %v%%, want ~100", vecPct)
	}
	if fullPct > 20 || oraclePct > 20 {
		t.Fatalf("full-space mappers picked overloaded node too often: dht %v%%, oracle %v%%", fullPct, oraclePct)
	}
}

func TestFig4SmallShape(t *testing.T) {
	tb, err := Fig4(Fig4Params{Scale: Small, Seed: 4, Background: 10, Probes: 6,
		Radii: []float64{0, 20, math.Inf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Examined (col 1) monotone nondecreasing in radius.
	if cell(t, tb, 0, 1) > cell(t, tb, 1, 1) || cell(t, tb, 1, 1) > cell(t, tb, 2, 1) {
		t.Fatalf("examined not monotone: %v %v %v", cell(t, tb, 0, 1), cell(t, tb, 1, 1), cell(t, tb, 2, 1))
	}
	// r=0 reuses nothing; full MQO should reuse something with
	// template-skewed background.
	if cell(t, tb, 0, 2) != 0 {
		t.Fatalf("r=0 reuse rate = %v, want 0", cell(t, tb, 0, 2))
	}
	if cell(t, tb, 2, 2) == 0 {
		t.Fatal("full MQO found no reuse despite template sharing")
	}
	// Usage at full MQO must not exceed the no-reuse baseline.
	if cell(t, tb, 2, 5) > 100+1e-9 {
		t.Fatalf("full MQO usage %v%% of baseline, want <= 100", cell(t, tb, 2, 5))
	}
}

func TestX1SmallShape(t *testing.T) {
	tb, err := X1(X1Params{Scale: Small, Seed: 11, QueryCounts: []int{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		randomRatio := cell(t, tb, i, 5)
		if randomRatio < 1 {
			t.Fatalf("random placement beat relaxation (ratio %v)", randomRatio)
		}
	}
}

func TestX2SmallShape(t *testing.T) {
	tb, err := X2(X2Params{Scale: Small, Seed: 12, Rounds: []int{1, 10, 50}})
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, 2, 1)
	if last >= first {
		t.Fatalf("error did not fall with rounds: %v -> %v", first, last)
	}
}

func TestX3SmallShape(t *testing.T) {
	tb, err := X3(X3Params{Scale: Small, Seed: 13, Dims: []int{2, 4}, Targets: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		ratio := cell(t, tb, i, 2)
		if ratio < 1-1e-9 || ratio > 10 {
			t.Fatalf("dims row %d: err ratio %v implausible", i, ratio)
		}
	}
}

func TestX4SmallShape(t *testing.T) {
	tb, err := X4(X4Params{Scale: Small, Seed: 14, Queries: 5, Steps: 5,
		Churn: workload.Churn{LoadFraction: 0.3, LoadMax: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var static, reopt float64
	for i := range tb.Rows {
		static += cell(t, tb, i, 1)
		reopt += cell(t, tb, i, 2)
	}
	if reopt > static*1.05 {
		t.Fatalf("re-optimization increased load penalty: static %v vs reopt %v", static, reopt)
	}
}

func TestX5Shape(t *testing.T) {
	tb, err := X5(X5Params{Seed: 15, Sizes: []int{32, 256}, Lookups: 100})
	if err != nil {
		t.Fatal(err)
	}
	small := cell(t, tb, 0, 1)
	large := cell(t, tb, 1, 1)
	if large > small*4 {
		t.Fatalf("hops not logarithmic: %v vs %v", small, large)
	}
}

func TestX6SmallShape(t *testing.T) {
	tb, err := X6(X6Params{Seed: 16, StubSizes: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Exhaustive must be at least as good on usage (it is the oracle),
	// within numeric tolerance.
	for i := range tb.Rows {
		gap := cell(t, tb, i, 6)
		if gap < -1 {
			t.Fatalf("integrated beat exhaustive by %v%% — exhaustive is broken", -gap)
		}
	}
}

func TestX7SmallShape(t *testing.T) {
	tb, err := X7(X7Params{Scale: Small, Seed: 17, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		ratio := cell(t, tb, i, 3)
		if ratio < 0.3 || ratio > 3 {
			t.Fatalf("run %d: weiszfeld/spring ratio %v implausible", i, ratio)
		}
	}
}

func TestX8Quick(t *testing.T) {
	// A 60-simulated-second window per circuit, instant.
	tb, err := X8(X8Params{Seed: 18, RunFor: 600 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Relay and filter usage and rate ratios should be near 1 (joins
	// are noisy).
	for i := 0; i < 2; i++ {
		for _, col := range []int{3, 6} {
			if ratio := cell(t, tb, i, col); ratio < 0.4 || ratio > 2.0 {
				t.Fatalf("row %d col %d: measured/analytic ratio %v far from 1", i, col, ratio)
			}
		}
	}
}

// TestX8VirtualDeterministic demands bit-identical tables from two
// same-seed runs — the reproducibility acceptance criterion.
func TestX8VirtualDeterministic(t *testing.T) {
	run := func() *Table {
		tb, err := X8(X8Params{Seed: 18, RunFor: 400 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	a, b := run(), run()
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("same-seed X8 diverged at row %d col %d: %q vs %q",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestX11SmallShape(t *testing.T) {
	p := X11Params{Seed: 19, StubNodes: 5, Streams: 8, Queries: 25, SimSeconds: 2,
		HeartbeatEvery: 500 * time.Millisecond, TupleSizeKB: 4}
	tb, err := X11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if nodes := cell(t, tb, 0, 0); nodes != 256 {
		t.Fatalf("nodes = %v, want 256", nodes)
	}
	if circuits := cell(t, tb, 0, 1); circuits != 25 {
		t.Fatalf("circuits = %v, want 25", circuits)
	}
	if tuples := cell(t, tb, 0, 3); tuples <= 0 {
		t.Fatal("no tuples delivered")
	}
	if beats := cell(t, tb, 0, 5); beats <= 0 {
		t.Fatal("no heartbeats delivered")
	}
	// Aggregate rate tracks the model; joins make usage noisier.
	if r := cell(t, tb, 0, 6); r < 0.4 || r > 2 {
		t.Fatalf("aggregate rate ratio %v far from 1", r)
	}
	if r := cell(t, tb, 0, 7); r < 0.3 || r > 2.5 {
		t.Fatalf("aggregate usage ratio %v far from 1", r)
	}
}

// TestX11Deterministic checks same-seed reproducibility of the scenario
// measurements (all columns except the wall-time stopwatch).
func TestX11Deterministic(t *testing.T) {
	p := X11Params{Seed: 19, StubNodes: 5, Streams: 8, Queries: 15, SimSeconds: 1,
		HeartbeatEvery: 500 * time.Millisecond, TupleSizeKB: 4}
	run := func() []string {
		tb, err := X11(p)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows[0][:8] // drop the wall-ms column
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed X11 diverged at col %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRunSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, []string{"x5"}, RunOptions{Scale: Small}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "X5") {
		t.Fatalf("output missing X5 table:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, []string{"nope"}, RunOptions{Scale: Small}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := Run(&buf, []string{"x5"}, RunOptions{Scale: Small, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(dir + "/x5.csv"); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("bogus found")
	}
	if _, ok := Lookup("x15"); !ok {
		t.Fatal("x15 missing")
	}
	if len(All()) != 22 {
		t.Fatalf("All() = %d experiments, want 22", len(All()))
	}
}

func TestX10SmallShape(t *testing.T) {
	tb, err := X10(X10Params{Scale: Small, Seeds: 3, States: []int{1, 2, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		bank8 := cell(t, tb, i, 5)
		integ := cell(t, tb, i, 6)
		// Integrated considers a superset of the bank's plans under the
		// same model.
		if integ > bank8+1e-6 {
			t.Fatalf("row %d: integrated %v worse than bank %v", i, integ, bank8)
		}
	}
}

func TestX9SmallShape(t *testing.T) {
	tb, err := X9(X9Params{Scale: Small, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		before := cell(t, tb, i, 1)
		after := cell(t, tb, i, 2)
		if after > before+1e-6 {
			t.Fatalf("seed row %d: rewriting increased usage %v -> %v", i, before, after)
		}
	}
}

func readFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// smallX12 is the CI-scale churn configuration.
func smallX12() X12Params {
	p := DefaultX12Params()
	p.StubNodes = 5 // 256 nodes
	p.Queries = 12
	p.WarmupSimSeconds = 2
	return p
}

func TestX12SmallShape(t *testing.T) {
	tb, err := X12(smallX12())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (drain+kill, rejoin+sweep)", len(tb.Rows))
	}
	for i, phase := range []string{"drain+kill", "rejoin+sweep"} {
		if tb.Rows[i][0] != phase {
			t.Fatalf("row %d phase = %q, want %q", i, tb.Rows[i][0], phase)
		}
		if loss := cell(t, tb, i, 6); loss != 0 {
			t.Fatalf("%s: tuple loss %v, want 0", phase, loss)
		}
	}
	// Killing nodes must actually migrate something and take measurable
	// settle time.
	if m := cell(t, tb, 0, 2); m <= 0 {
		t.Fatal("drain phase migrated nothing")
	}
	if s := cell(t, tb, 0, 5); s <= 0 {
		t.Fatal("drain phase reported no settle time")
	}
}

func TestX12Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X12(smallX12())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X12 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// smallX13 is the CI-scale adaptation configuration.
func smallX13() X13Params {
	p := DefaultX13Params()
	p.StubNodes = 5 // 256 nodes
	p.Queries = 30
	p.Budget = 6
	p.IntervalSimSeconds = 1
	p.WarmupSimSeconds = 2
	return p
}

func TestX13SmallShape(t *testing.T) {
	tb, err := X13(smallX13())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 sweeps", len(tb.Rows))
	}
	migrated := 0.0
	for i := range tb.Rows {
		migrated += cell(t, tb, i, 2)
		if before, after := cell(t, tb, i, 3), cell(t, tb, i, 4); after > before {
			t.Fatalf("sweep %d increased usage: %v → %v", i+1, before, after)
		}
	}
	if migrated == 0 {
		t.Fatal("no migrations across any sweep")
	}
}

// TestX13NotesRepeat pins X13's headline claim and its bytes: ten
// identical small runs print the same notes (the last, host wall time,
// aside), and the usage trajectory holds. The usage totals the claim
// compares must not depend on map order.
func TestX13NotesRepeat(t *testing.T) {
	var first []string
	for i := 0; i < 10; i++ {
		tb, err := X13(smallX13())
		if err != nil {
			t.Fatal(err)
		}
		notes := tb.Notes[:len(tb.Notes)-1]
		if i == 0 {
			first = notes
			if !strings.HasSuffix(notes[0], "strictly lower on every sweep that migrated: true") {
				t.Fatalf("headline note %q, want the usage trajectory to hold", notes[0])
			}
		} else if strings.Join(notes, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d notes differ:\n%q\nvs\n%q", i+1, notes, first)
		}
	}
}

// TestX13FullScaleTrajectory runs the acceptance-criterion configuration
// (1024 nodes) and requires a strictly decreasing usage trajectory over
// at least 3 sweeps with zero loss. The whole run is sub-second under
// virtual time, so it is feasible as a test.
func TestX13FullScaleTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node scenario skipped in -short")
	}
	tb, err := X13(DefaultX13Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("only %d sweeps", len(tb.Rows))
	}
	decreases := 0
	for i := range tb.Rows {
		before, after := cell(t, tb, i, 3), cell(t, tb, i, 4)
		if after < before {
			decreases++
		}
		if after > before {
			t.Fatalf("sweep %d increased total usage: %v → %v", i+1, before, after)
		}
	}
	if decreases < 3 {
		t.Fatalf("usage strictly decreased in only %d sweeps, want >= 3", decreases)
	}
}

func TestX13Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X13(smallX13())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X13 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// smallX14 is the CI-scale shared-execution configuration.
func smallX14() X14Params {
	p := DefaultX14Params()
	p.StubNodes = 5 // 256 nodes
	p.Groups = 8
	p.PerGroup = 3
	p.MeasureSimSeconds = 2
	return p
}

func TestX14SmallShape(t *testing.T) {
	tb, err := X14(smallX14())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want reuse-on and reuse-off", len(tb.Rows))
	}
	on, off := tb.Rows[0], tb.Rows[1]
	if cell(t, tb, 0, 2) == 0 || cell(t, tb, 0, 3) == 0 {
		t.Fatalf("reuse-on pass shared nothing: %v", on)
	}
	if cell(t, tb, 1, 2) != 0 {
		t.Fatalf("reuse-off pass reused services: %v", off)
	}
	onUsage, offUsage := cell(t, tb, 0, 5), cell(t, tb, 1, 5)
	if !(onUsage < offUsage) {
		t.Fatalf("reuse did not lower data-plane usage: %v vs %v", onUsage, offUsage)
	}
	if cell(t, tb, 0, 6) == 0 {
		t.Fatal("reuse-on pass delivered nothing")
	}
	for r := 0; r < 2; r++ {
		if loss := cell(t, tb, r, 8); loss != 0 {
			t.Fatalf("row %d lost %v messages", r, loss)
		}
	}
}

// TestX14FullScale runs the acceptance-criterion configuration: 200
// queries over 40 shared subtrees on the 1024-node overlay, measured
// usage with reuse strictly below the no-reuse run, zero loss.
func TestX14FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node scenario skipped in -short")
	}
	tb, err := X14(DefaultX14Params())
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tb, 0, 1); got != 200 {
		t.Fatalf("circuits = %v, want 200", got)
	}
	onUsage, offUsage := cell(t, tb, 0, 5), cell(t, tb, 1, 5)
	if !(onUsage < offUsage) {
		t.Fatalf("reuse did not lower data-plane usage at full scale: %v vs %v", onUsage, offUsage)
	}
	if shared := cell(t, tb, 0, 3); shared < float64(DefaultX14Params().Groups)/2 {
		t.Fatalf("only %v shared instances executing, want most of the %d groups", shared, DefaultX14Params().Groups)
	}
	for r := 0; r < 2; r++ {
		if loss := cell(t, tb, r, 8); loss != 0 {
			t.Fatalf("row %d lost %v messages", r, loss)
		}
	}
}

// smallX15 is the CI-scale incremental re-planning configuration.
func smallX15() X15Params {
	p := DefaultX15Params()
	p.StubNodes = 5 // 256 nodes
	p.Queries = 40
	return p
}

func TestX15SmallShape(t *testing.T) {
	tb, err := X15(smallX15())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(smallX15().DeltaFractions) {
		t.Fatalf("rows = %d, want one per delta fraction", len(tb.Rows))
	}
	// Small deltas must stay incremental and evaluate strictly fewer
	// services than the full sweep; X15 itself errors if any round's
	// plans diverge, so finishing at all certifies equivalence.
	for i := 0; i < 2; i++ {
		if tb.Rows[i][6] != "true" && cell(t, tb, i, 5) <= 1 {
			t.Fatalf("delta row %d: speedup %v, want > 1 (row %v)", i, cell(t, tb, i, 5), tb.Rows[i])
		}
		if tb.Rows[i][6] == "true" {
			t.Fatalf("delta row %d degenerated to a full sweep: %v", i, tb.Rows[i])
		}
	}
	// The oversized last delta must trip the full-sweep fallback.
	last := len(tb.Rows) - 1
	if tb.Rows[last][6] != "true" {
		t.Fatalf("oversized delta did not fall back to a full sweep: %v", tb.Rows[last])
	}
}

func TestX15Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X15(smallX15())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X15 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// TestX15FullScaleSpeedup runs the acceptance-criterion configuration:
// on 1024 nodes with 200 circuits, a 1%-node delta must re-evaluate at
// least 10x fewer services than the full sweep while producing the
// identical plan.
func TestX15FullScaleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node scenario skipped in -short")
	}
	tb, err := X15(DefaultX15Params())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range DefaultX15Params().DeltaFractions {
		if f != 0.01 {
			continue
		}
		if speedup := cell(t, tb, i, 5); speedup < 10 {
			t.Fatalf("1%%-delta speedup %.1fx, want >= 10x (row %v)", speedup, tb.Rows[i])
		}
		if tb.Rows[i][6] != "false" {
			t.Fatalf("1%%-delta round was not incremental: %v", tb.Rows[i])
		}
	}
}

func TestX14Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X14(smallX14())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X14 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// smallX16 is the CI-scale failure-recovery configuration (256 nodes,
// ~13 crashes).
func smallX16() X16Params {
	p := DefaultX16Params()
	p.StubNodes = 5 // 256 nodes
	p.Queries = 30
	p.WarmupSimSeconds = 2
	p.CrashSpreadSimSeconds = 2
	p.RunSimSeconds = 6
	return p
}

func TestX16SmallShape(t *testing.T) {
	tb, err := X16(smallX16())
	if err != nil {
		t.Fatal(err)
	}
	// X16 itself errors when any crash goes undetected, a circuit is
	// cancelled, a service remains on a corpse, or nothing was lost —
	// the rows here are the per-round activity trace.
	if len(tb.Rows) == 0 {
		t.Fatal("no active repair rounds recorded")
	}
	died, repaired, aborted := 0.0, 0.0, 0.0
	for i := range tb.Rows {
		died += cell(t, tb, i, 2)
		repaired += cell(t, tb, i, 4)
		aborted += cell(t, tb, i, 6)
	}
	if died == 0 {
		t.Fatal("no deaths detected")
	}
	if repaired == 0 {
		t.Fatal("no services repaired")
	}
	if repaired < aborted {
		t.Fatalf("more aborts (%v) than repairs (%v)", aborted, repaired)
	}
}

func TestX16Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X16(smallX16())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same-seed X16 row counts diverged: %d vs %d", len(a), len(b))
	}
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X16 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// TestX16FullScale runs the acceptance-criterion configuration: 1024
// nodes, 5% staggered crashes under 1% ambient message loss. Every
// affected circuit must repair onto live nodes with zero manual
// Evacuate calls and zero cancellations (X16 errors otherwise), with
// deaths detected for every crashed node.
func TestX16FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node scenario skipped in -short")
	}
	tb, err := X16(DefaultX16Params())
	if err != nil {
		t.Fatal(err)
	}
	died, repaired := 0.0, 0.0
	for i := range tb.Rows {
		died += cell(t, tb, i, 2)
		repaired += cell(t, tb, i, 4)
	}
	if want := 51.0; died != want { // 5% of 1024, rounded
		t.Fatalf("deaths detected = %v, want %v", died, want)
	}
	if repaired == 0 {
		t.Fatal("no services repaired at full scale")
	}
}
