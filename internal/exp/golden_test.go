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

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_small.sha256 from this run")

const goldenFile = "testdata/golden_small.sha256"

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

// TestGoldenSmall pins commit-to-commit identity of what the
// experiments emit, where the determinism tests pin only run-to-run
// identity within one commit: the sha256 of every CSV exp.Run writes at
// Small scale, of the JSONL trace of the small X12, X16 and X17
// scenarios, and the placement fingerprints X16 and X17 report. A
// refactor that changes none of the simulated behaviour leaves
// testdata/golden_small.sha256 untouched; a change that means to move
// the bytes regenerates it with `go test ./internal/exp -run
// TestGoldenSmall -update` and says why.
func TestGoldenSmall(t *testing.T) {
	got := map[string]string{}
	sum := func(name string, b []byte) { got[name] = fmt.Sprintf("%x", sha256.Sum256(b)) }

	dir := t.TempDir()
	if err := Run(io.Discard, nil, RunOptions{Scale: Small, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if cols := hostTimeColumns[name]; cols != nil {
			raw = maskColumns(t, raw, cols)
		}
		sum(name, raw)
	}

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
	traced("x12", func(tr *trace.Tracer) (*Table, error) { p := smallX12(); p.Trace = tr; return X12(p) }, false)
	traced("x16", func(tr *trace.Tracer) (*Table, error) { p := smallX16(); p.Trace = tr; return X16(p) }, true)
	traced("x17", func(tr *trace.Tracer) (*Table, error) { p := smallX17(); p.Trace = tr; return X17(p) }, true)

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
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		hash, name, ok := strings.Cut(ln, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, ln)
		}
		want[name] = hash
	}
	for _, name := range names {
		if want[name] == "" {
			t.Errorf("%s is not in %s", name, goldenFile)
		} else if got[name] != want[name] {
			t.Errorf("%s changed: sha256 %s, golden %s", name, got[name], want[name])
		}
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s is in %s but was not produced", name, goldenFile)
		}
	}
}
