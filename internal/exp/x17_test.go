package exp

import (
	"os"
	"testing"
)

// smallX17 shrinks the scenario to ~1040 nodes / 2000 queries so shape
// and determinism run in unit-test time; the full-scale configuration
// is exercised by TestX17FullScale and BenchmarkX17.
func smallX17() X17Params {
	p := DefaultX17Params()
	p.StubsPerTransit = 8
	p.StubNodes = 8 // 16 + 16·8·8 = 1040 nodes
	p.Queries = 2000
	p.EngineCircuits = 64
	p.TickerWarmRounds = 20
	p.Rounds = 2
	return p
}

func TestX17SmallShape(t *testing.T) {
	tb, err := X17(smallX17())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("expected 2 adaptation rounds, got %d rows", len(tb.Rows))
	}
	for i := range tb.Rows {
		if synced := cell(t, tb, i, 1); synced <= 0 {
			t.Fatalf("round %d synced no coordinates — ticker not feeding the env", i+1)
		}
		if staleness := cell(t, tb, i, 2); staleness <= 0 {
			t.Fatalf("round %d staleness %v, want > 0 (gossip keeps moving coordinates)", i+1, staleness)
		}
		if pending := cell(t, tb, i, 8); pending <= 0 {
			t.Fatalf("round %d pending events %v, want > 0 (heartbeats and producers live)", i+1, pending)
		}
	}
}

func TestX17Deterministic(t *testing.T) {
	run := func() [][]string {
		tb, err := X17(smallX17())
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same-seed X17 row counts diverged: %d vs %d", len(a), len(b))
	}
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("same-seed X17 diverged at (%d,%d): %q vs %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

// TestX17FullScale runs the acceptance-criterion configuration: 16400
// nodes, 100k queries through 16 shards, full-population heartbeats
// under virtual time — a scenario that requires the sparse latency
// decomposition and is infeasible on the binary-heap scheduler within
// any reasonable budget. It takes a third of tier-1's wall time on its
// own, so like TestX18FullScale it is opt-in: set SBON_FULLSCALE=1.
func TestX17FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node scenario skipped in -short")
	}
	if os.Getenv("SBON_FULLSCALE") == "" {
		t.Skip("~5 CPU-seconds at 16k nodes; set SBON_FULLSCALE=1 to run")
	}
	tb, err := X17(DefaultX17Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("expected 3 adaptation rounds, got %d rows", len(tb.Rows))
	}
	// The event kernel must actually have been under load: at 16400
	// nodes with heartbeats on, tens of thousands of timers pend.
	if pending := cell(t, tb, 0, 8); pending < 16000 {
		t.Fatalf("pending events %v, want >= 16000 at full scale", pending)
	}
	for i := range tb.Rows {
		if synced := cell(t, tb, i, 1); synced <= 0 {
			t.Fatalf("round %d synced no coordinates", i+1)
		}
	}
}
