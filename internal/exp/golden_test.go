package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file of each golden test that runs from this run")

// hostTimeColumns are the CSV columns that report wall time of the
// host: two runs of one binary already differ there, so the golden
// hashes are taken with these cells blanked.
var hostTimeColumns = map[string][]string{
	"x6.csv":  {"integrated ms", "exhaustive ms", "speedup"},
	"x11.csv": {"wall ms"},
}

// maskColumns blanks the named columns of a CSV, header kept.
func maskColumns(t *testing.T, raw []byte, cols []string) []byte {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cols {
		at := -1
		for i, h := range rows[0] {
			if h == name {
				at = i
			}
		}
		if at < 0 {
			t.Fatalf("no column %q to mask in %v", name, rows[0])
		}
		for _, row := range rows[1:] {
			row[at] = ""
		}
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runHashes runs every experiment at scale through Run and returns the
// sha256 of each file Run writes: every CSV, with the host-time columns
// blanked, and every experiment's deterministic notes.
func runHashes(t *testing.T, scale Scale) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := Run(io.Discard, nil, RunOptions{Scale: scale, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if cols := hostTimeColumns[name]; cols != nil {
			raw = maskColumns(t, raw, cols)
		}
		got[name] = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	return got
}

// checkGolden compares got with the sha256 lines of file, or rewrites
// file from got under -update.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		hash, name, ok := strings.Cut(ln, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", file, ln)
		}
		want[name] = hash
	}
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s is not in %s", name, file)
		} else if got[name] != want[name] {
			t.Errorf("%s changed: sha256 %s, golden %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s is in %s but was not produced", name, file)
		}
	}
}

// TestGoldenSmall pins commit-to-commit identity of what the
// experiments emit, where the determinism tests pin only run-to-run
// identity within one commit: the sha256 of every CSV and notes file
// exp.Run writes at Small scale, of the JSONL trace of the small X12,
// X16 and X17 scenarios, and the placement fingerprints X16 and X17
// report. A refactor that changes none of the simulated behaviour
// leaves testdata/golden_small.sha256 untouched; a change that means to
// move the bytes regenerates it with `go test ./internal/exp -run
// TestGoldenSmall -update` and says why.
func TestGoldenSmall(t *testing.T) {
	got := runHashes(t, Small)
	sum := func(name string, b []byte) { got[name] = fmt.Sprintf("%x", sha256.Sum256(b)) }

	traced := func(name string, run func(tr *trace.Tracer) (*Table, error), fingerprint bool) {
		tr := trace.New(simtime.NewVirtual())
		tb, err := run(tr)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr.StreamJSONL(&buf)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s recorded no trace", name)
		}
		sum(name+".trace.jsonl", buf.Bytes())
		if fingerprint {
			sum(name+".placement", []byte(fingerprintNote(t, tb)))
		}
	}
	traced("x12", func(tr *trace.Tracer) (*Table, error) { p := DefaultX12Params(Small); p.Trace = tr; return X12(p) }, false)
	traced("x16", func(tr *trace.Tracer) (*Table, error) { p := DefaultX16Params(Small); p.Trace = tr; return X16(p) }, true)
	traced("x17", func(tr *trace.Tracer) (*Table, error) { p := DefaultX17Params(Small); p.Trace = tr; return X17(p) }, true)

	checkGolden(t, "testdata/golden_small.sha256", got)
}

// TestGoldenFull is TestGoldenSmall at Full scale, without the traces:
// the sha256 of every CSV and notes file exp.Run writes, pinned in
// testdata/golden_full.sha256 (regenerate with -update). The whole
// full-scale run takes ~15 s on a 2-core host, most of it X18's 102k
// nodes, so it is opt-in: set SBON_FULLSCALE=1.
func TestGoldenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiments skipped in -short")
	}
	if os.Getenv("SBON_FULLSCALE") == "" {
		t.Skip("~15 s at full scale; set SBON_FULLSCALE=1 to run")
	}
	checkGolden(t, "testdata/golden_full.sha256", runHashes(t, Full))
}
