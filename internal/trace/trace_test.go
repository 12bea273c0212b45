package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
)

// A nil tracer must be a safe, near-free no-op at every call site —
// that is the contract every instrumented layer relies on.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	var ctr uint64
	if tr.SampleAt(&ctr) {
		t.Fatal("nil tracer reports SampleAt true")
	}
	tr.Emit("cat", "ev", Int("x", 1))
	sp := tr.Begin("cat", "span")
	if sp.Active() {
		t.Fatal("span from nil tracer is Active")
	}
	sp.Emit("inner", Num("v", 2))
	sp.End(Str("outcome", "done"))
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer accumulated state")
	}
	var zero Span
	zero.Emit("x")
	zero.End()

	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer JSONL wrote %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `{"traceEvents":[]}` {
		t.Fatalf("nil tracer Chrome trace = %q", buf.String())
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(simtime.NewVirtual())
	sp := tr.Begin("opt", "plan", Int("circuits", 3))
	sp.Emit("accept", Num("gain", 1.5))
	sp.End(Int("moves", 1))
	tr.Emit("opt", "note")

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Ph != Begin || evs[1].Ph != Instant || evs[2].Ph != End {
		t.Fatalf("phases = %v %v %v", evs[0].Ph, evs[1].Ph, evs[2].Ph)
	}
	if evs[0].Span == 0 || evs[0].Span != evs[1].Span || evs[1].Span != evs[2].Span {
		t.Fatalf("span ids not linked: %d %d %d", evs[0].Span, evs[1].Span, evs[2].Span)
	}
	if evs[3].Span != 0 {
		t.Fatalf("plain Emit got span id %d", evs[3].Span)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	sp2 := tr.Begin("opt", "plan")
	if id := tr.Events()[4].Span; id == evs[0].Span {
		t.Fatalf("span ids reused: %d", id)
	}
	sp2.End()
}

func TestSampleEvery(t *testing.T) {
	tr := New(simtime.NewVirtual())
	var a, b uint64
	var hits []int
	for i := 1; i <= 4*sampleEvery; i++ {
		if tr.SampleAt(&a) {
			hits = append(hits, i)
		}
		if i <= sampleEvery && tr.SampleAt(&b) != (i == 1) {
			t.Fatalf("a second counter's call %d decided apart from its own history", i)
		}
	}
	want := []int{1, 1 + sampleEvery, 1 + 2*sampleEvery, 1 + 3*sampleEvery}
	if fmt.Sprint(hits) != fmt.Sprint(want) {
		t.Fatalf("sampled calls %v, want %v", hits, want)
	}
}

// The buffer limit drops new Begin/Instant events but never End events,
// so every opened span still closes in the export.
func TestLimitKeepsSpanEnds(t *testing.T) {
	tr := New(simtime.NewVirtual())
	tr.limit = 2
	sp := tr.Begin("c", "outer")
	tr.Emit("c", "fill")
	tr.Emit("c", "over") // dropped
	sp.End()             // recorded despite the full buffer
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	evs := tr.Events()
	if evs[len(evs)-1].Ph != End {
		t.Fatal("final event is not the span End")
	}
}

func TestStreamJSONLShape(t *testing.T) {
	tr := New(simtime.NewVirtual())
	sp := tr.Begin("dht", "lookup", Str("key", "0xbeef"), Int("start", 7))
	sp.Emit("hop", Int("from", 7), Int("to", 12))
	sp.End(Str("outcome", "owner"), Int("hops", 1))

	var buf bytes.Buffer
	tr.StreamJSONL(&buf)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		for _, k := range []string{"seq", "t_us", "cat", "name", "ph"} {
			if _, ok := obj[k]; !ok {
				t.Fatalf("line %d missing %q: %s", i, k, ln)
			}
		}
	}
	var hop map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &hop); err != nil {
		t.Fatal(err)
	}
	args := hop["args"].(map[string]any)
	if args["from"].(float64) != 7 || args["to"].(float64) != 12 {
		t.Fatalf("hop args = %v", args)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	tr := New(simtime.NewVirtual())
	sp := tr.Begin("engine", "migration", Int("q", 1))
	sp.Emit("cutover", Int("buffered", 2))
	sp.End(Str("outcome", "done"))
	tr.Emit("overlay", "fault_crash", Int("node", 9))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	// Two categories -> two thread_name metadata events, then the four
	// real events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(doc.TraceEvents))
	}
	meta := 0
	tids := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			meta++
			args := ev["args"].(map[string]any)
			tids[args["name"].(string)] = ev["tid"].(float64)
			continue
		}
		if ev["cat"] == "engine" && ev["tid"].(float64) != tids["engine"] {
			t.Fatalf("engine event on tid %v, want %v", ev["tid"], tids["engine"])
		}
	}
	if meta != 2 {
		t.Fatalf("got %d metadata events, want 2", meta)
	}
}

// Concurrent emission must be race-free and lose nothing (under -race
// this is the synchronization proof for real-clock scenarios).
func TestConcurrentEmit(t *testing.T) {
	tr := New(nil)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if g%2 == 0 {
					sp := tr.Begin("load", "work", Int("g", g))
					sp.End(Int("i", i))
				} else {
					tr.Emit("load", "tick", Int("g", g))
				}
			}
		}(g)
	}
	wg.Wait()
	want := goroutines / 2 * per * 2 // Begin+End pairs
	want += goroutines / 2 * per     // instants
	if tr.Len() != want {
		t.Fatalf("len = %d, want %d", tr.Len(), want)
	}
	seen := map[uint64]bool{}
	for _, ev := range tr.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestNilClockStampsZeroUntilRebase: a tracer built without a clock
// stamps every event 0, however much wall time passes, until Rebase
// points it at a clock that moves.
func TestNilClockStampsZeroUntilRebase(t *testing.T) {
	tr := New(nil)
	tr.Emit("c", "first")
	time.Sleep(2 * time.Millisecond)
	tr.Emit("c", "later")
	clk := simtime.NewVirtual()
	defer clk.Stop()
	clk.Sleep(time.Second)
	tr.Rebase(clk)
	clk.Sleep(5 * time.Millisecond)
	tr.Emit("c", "rebased")
	evs := tr.Events()
	for i, want := range []time.Duration{0, 0, 5 * time.Millisecond} {
		if evs[i].T != want {
			t.Fatalf("event %q stamped %v, want %v", evs[i].Name, evs[i].T, want)
		}
	}
}

// emitFixture drives an identical deterministic event sequence into tr:
// the streaming-vs-buffered byte-equality test runs it twice.
func emitFixture(tr *Tracer, clk *simtime.VirtualClock) {
	defer clk.Stop()
	for i := 0; i < 200; i++ {
		tr.Emit("engine", "tuple", Int("hop", i), Str("q", "π-\"quoted\"\n"))
		sp := tr.Begin("adapt", "sweep", Num("thr", 1.05))
		clk.Sleep(time.Millisecond)
		sp.Emit("accept", Num("gain", float64(i)*0.125))
		sp.End(Int("moves", i%3))
	}
}

// A stream installed before the run must write the same bytes as one
// installed after it, which writes the buffered run and keeps it
// buffered — that is the contract that lets callers flip to
// constant-memory streaming without losing the same-seed bit-identity
// guarantees.
func TestStreamJSONLMatchesBuffered(t *testing.T) {
	var streamed bytes.Buffer
	{
		clk := simtime.NewVirtual()
		tr := New(clk)
		tr.StreamJSONL(&streamed)
		emitFixture(tr, clk)
		if tr.Len() != 0 {
			t.Fatalf("streaming tracer retained %d events in memory", tr.Len())
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var buffered bytes.Buffer
	{
		clk := simtime.NewVirtual()
		tr := New(clk)
		emitFixture(tr, clk)
		n := tr.Len()
		tr.StreamJSONL(&buffered)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("a late StreamJSONL changed the buffer from %d to %d events", n, tr.Len())
		}
	}
	if buffered.Len() == 0 {
		t.Fatal("fixture produced no events")
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		sl := strings.Split(streamed.String(), "\n")
		bl := strings.Split(buffered.String(), "\n")
		for i := 0; i < len(sl) && i < len(bl); i++ {
			if sl[i] != bl[i] {
				t.Fatalf("streamed and buffered JSONL diverge at line %d:\n stream: %s\n buffer: %s", i+1, sl[i], bl[i])
			}
		}
		t.Fatalf("streamed and buffered JSONL differ in length: %d vs %d lines", len(sl), len(bl))
	}
}

// Streaming must never drop events: the buffer cap exists to bound
// memory, and a sink bounds memory by construction.
func TestStreamJSONLIgnoresLimit(t *testing.T) {
	var out bytes.Buffer
	tr := New(simtime.NewVirtual())
	tr.limit = 4
	tr.StreamJSONL(&out)
	for i := 0; i < 100; i++ {
		tr.Emit("cat", "ev", Int("i", i))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("streaming tracer dropped %d events", tr.Dropped())
	}
	if n := bytes.Count(out.Bytes(), []byte{'\n'}); n != 100 {
		t.Fatalf("streamed %d lines, want 100", n)
	}
	// Every line must be valid JSON with monotonically increasing seq.
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	last := uint64(0)
	for dec.More() {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != last+1 {
			t.Fatalf("seq %d follows %d", ev.Seq, last)
		}
		last = ev.Seq
	}
}

// errWriter fails after n bytes to exercise sink error capture.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSinkFull
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errSinkFull
	}
	w.n -= len(p)
	return len(p), nil
}

var errSinkFull = &sinkFullError{}

type sinkFullError struct{}

func (*sinkFullError) Error() string { return "sink full" }

func TestStreamJSONLSurfacesWriteError(t *testing.T) {
	tr := New(simtime.NewVirtual())
	tr.StreamJSONL(&errWriter{n: 64})
	for i := 0; i < 5000; i++ {
		tr.Emit("cat", "ev", Int("i", i))
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush returned nil after sink write failure")
	}
}
