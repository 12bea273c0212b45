package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/trace"
)

// traced runs an experiment with a tracer attached and returns the
// serialized JSONL event stream.
func traced(t *testing.T, run func(tr *trace.Tracer) (*Table, error)) []byte {
	t.Helper()
	tr := trace.New(simtime.NewVirtual())
	if _, err := run(tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tracedX16 runs the CI-scale crash/repair scenario traced.
func tracedX16(t *testing.T) []byte {
	return traced(t, func(tr *trace.Tracer) (*Table, error) { p := smallX16(); p.Trace = tr; return X16(p) })
}

// The tentpole determinism contract: two same-seed virtual-clock runs
// of the full crash/detect/repair scenario must serialize to
// bit-identical trace bytes — sequence numbers, timestamps, span ids,
// argument formatting, everything.
func TestX16TraceBitIdentical(t *testing.T) {
	a := tracedX16(t)
	b := tracedX16(t)
	if len(a) == 0 {
		t.Fatal("traced X16 produced no events")
	}
	if !bytes.Equal(a, b) {
		la := strings.Split(string(a), "\n")
		lb := strings.Split(string(b), "\n")
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				t.Fatalf("same-seed traces diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("same-seed traces differ in length: %d vs %d lines", len(la), len(lb))
	}
}

// The trace of a crash/repair run must contain every layer's events:
// injected faults, detector verdicts, repair rounds with per-circuit
// outcomes, migration spans, and optimizer decisions.
func TestX16TraceCoversAllLayers(t *testing.T) {
	raw := tracedX16(t)
	byName := map[string]int{}
	byCat := map[string]int{}
	for _, ln := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var ev struct {
			Cat  string `json:"cat"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, ln)
		}
		byName[ev.Name]++
		byCat[ev.Cat]++
	}
	// Crash repair re-instantiates operators on live hosts (the dead
	// source cannot run the live-migration protocol), so repair_move —
	// not migration — is the placement event here; migration spans are
	// covered by the X12 drain test below.
	for _, name := range []string{"fault_crash", "dead", "repair", "repair_move", "plan_incremental"} {
		if byName[name] == 0 {
			t.Errorf("trace has no %q events", name)
		}
	}
	for _, cat := range []string{"overlay", "failure", "adapt", "engine", "optimizer"} {
		if byCat[cat] == 0 {
			t.Errorf("trace has no events in category %q", cat)
		}
	}
}

// A churn drain runs the live-migration protocol under traffic, so its
// trace must carry migration spans with their cutover instants.
func TestX12TraceHasMigrationSpans(t *testing.T) {
	tr := trace.New(simtime.NewVirtual())
	p := smallX12()
	p.Trace = tr
	if _, err := X12(p); err != nil {
		t.Fatal(err)
	}
	begins, cutovers, ends := 0, 0, 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Name == "migration" && ev.Ph == trace.Begin:
			begins++
		case ev.Name == "cutover":
			cutovers++
		case ev.Name == "migration" && ev.Ph == trace.End:
			ends++
		}
	}
	if begins == 0 {
		t.Fatal("churn drain produced no migration spans")
	}
	if ends != begins {
		t.Fatalf("%d migration spans but %d ends", begins, ends)
	}
	if cutovers == 0 {
		t.Fatal("no cutover instants recorded")
	}
}

// Every adaptation span — repair, migrate, settle — nests under the
// "round" span of the Coordinator.Round that triggered it, in the crash
// scenario (repair) and the drift scenario (migrate, settle) alike.
func TestAdaptSpansSitUnderARound(t *testing.T) {
	for name, raw := range map[string][]byte{
		"x16": tracedX16(t),
		"x17": traced(t, func(tr *trace.Tracer) (*Table, error) { p := smallX17(); p.Trace = tr; return X17(p) }),
	} {
		type span struct {
			cat, name string
			parent    uint64
		}
		spans := map[uint64]span{}
		var adapt []uint64
		for _, ln := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			var ev struct {
				Cat    string `json:"cat"`
				Name   string `json:"name"`
				Ph     string `json:"ph"`
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			}
			if err := json.Unmarshal([]byte(ln), &ev); err != nil {
				t.Fatalf("%s: trace line is not JSON: %v\n%s", name, err, ln)
			}
			if ev.Ph != "B" {
				continue
			}
			spans[ev.Span] = span{ev.Cat, ev.Name, ev.Parent}
			if ev.Cat == "adapt" && ev.Name != "round" {
				adapt = append(adapt, ev.Span)
			}
		}
		if len(adapt) == 0 {
			t.Fatalf("%s: trace has no adapt spans besides rounds", name)
		}
		for _, id := range adapt {
			s := spans[id]
			for s.parent != 0 && !(s.cat == "adapt" && s.name == "round") {
				s = spans[s.parent]
			}
			if s.cat != "adapt" || s.name != "round" {
				t.Fatalf("%s: adapt span %d (%s) has no round ancestor", name, id, spans[id].name)
			}
		}
	}
}
