package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/trace"
)

// The tentpole contract, pinned at scenario level: the sharded data
// plane is an execution strategy, not a semantics. For any shard count
// the full crash/repair scenario (X16) and the scale scenario (X17)
// must produce bit-identical artifacts — table rows, final placement
// fingerprint, and the serialized trace byte stream — to the
// single-queue run, regardless of goroutine interleaving inside the
// parallel windows.

// x16Artifacts runs CI-scale X16 on the given shard count and returns
// its deterministic artifacts: table rows, the placement-fingerprint
// note, and the trace JSONL bytes.
func x16Artifacts(t *testing.T, shards int) ([][]string, string, []byte) {
	t.Helper()
	tr := trace.New(simtime.NewVirtual())
	p := DefaultX16Params(Small)
	p.Trace = tr
	p.DataShards = shards
	tb, err := X16(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tb.Rows, fingerprintNote(t, tb), buf.Bytes()
}

// x17Artifacts is x16Artifacts for the CI-scale X17 configuration.
func x17Artifacts(t *testing.T, shards int) ([][]string, string, []byte) {
	t.Helper()
	tr := trace.New(simtime.NewVirtual())
	p := DefaultX17Params(Small)
	p.Trace = tr
	p.DataShards = shards
	tb, err := X17(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tb.Rows, fingerprintNote(t, tb), buf.Bytes()
}

// fingerprintNote extracts the placement-fingerprint hash from a
// scenario table (the shard count that follows it in the note is
// expected to differ across runs and is stripped).
func fingerprintNote(t *testing.T, tb *Table) string {
	t.Helper()
	for _, n := range tb.Notes {
		if strings.HasPrefix(n, "placement fingerprint ") {
			return strings.SplitN(n, ";", 2)[0]
		}
	}
	t.Fatal("table has no placement-fingerprint note")
	return ""
}

func diffArtifacts(t *testing.T, scenario string, shards int,
	baseRows [][]string, baseFP string, baseTrace []byte,
	rows [][]string, fp string, raw []byte) {
	t.Helper()
	if len(rows) != len(baseRows) {
		t.Fatalf("%s with %d data shards: %d rows vs %d single-queue", scenario, shards, len(rows), len(baseRows))
	}
	for r := range rows {
		for c := range rows[r] {
			if rows[r][c] != baseRows[r][c] {
				t.Errorf("%s with %d data shards diverges at row %d col %d: %q vs single-queue %q",
					scenario, shards, r, c, rows[r][c], baseRows[r][c])
			}
		}
	}
	if fp != baseFP {
		t.Errorf("%s with %d data shards: final placements diverge: %s vs %s", scenario, shards, fp, baseFP)
	}
	if !bytes.Equal(raw, baseTrace) {
		la := strings.Split(string(baseTrace), "\n")
		lb := strings.Split(string(raw), "\n")
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				t.Fatalf("%s with %d data shards: trace diverges at line %d:\n  single-queue: %s\n  sharded:      %s",
					scenario, shards, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("%s with %d data shards: trace lengths diverge: %d vs %d lines", scenario, shards, len(lb), len(la))
	}
}

func TestX16ShardedBitIdentical(t *testing.T) {
	baseRows, baseFP, baseTrace := x16Artifacts(t, 1)
	if len(baseTrace) == 0 {
		t.Fatal("single-queue X16 produced no trace")
	}
	for _, shards := range []int{4, 16} {
		rows, fp, raw := x16Artifacts(t, shards)
		diffArtifacts(t, "X16", shards, baseRows, baseFP, baseTrace, rows, fp, raw)
	}
}

func TestX17ShardedBitIdentical(t *testing.T) {
	baseRows, baseFP, baseTrace := x17Artifacts(t, 1)
	if len(baseTrace) == 0 {
		t.Fatal("single-queue X17 produced no trace")
	}
	for _, shards := range []int{4, 16} {
		rows, fp, raw := x17Artifacts(t, shards)
		diffArtifacts(t, "X17", shards, baseRows, baseFP, baseTrace, rows, fp, raw)
	}
}

// TestX18Deterministic reruns the CI-scale X18 shape (the structure and
// 64-way sharding of the 102,464-node scale point, shrunk to test time)
// and requires identical rows — the "deterministic reruns" criterion.
func TestX18Deterministic(t *testing.T) {
	run := func() ([][]string, string) {
		tb, err := X17(DefaultX18Params(Small))
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows, fingerprintNote(t, tb)
	}
	rowsA, fpA := run()
	rowsB, fpB := run()
	if len(rowsA) == 0 {
		t.Fatal("X18 produced no rows")
	}
	if fpA != fpB {
		t.Fatalf("same-seed X18 placements diverged: %s vs %s", fpA, fpB)
	}
	for r := range rowsA {
		for c := range rowsA[r] {
			if rowsA[r][c] != rowsB[r][c] {
				t.Fatalf("same-seed X18 diverged at (%d,%d): %q vs %q", r, c, rowsA[r][c], rowsB[r][c])
			}
		}
	}
}
