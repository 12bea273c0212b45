package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Names are
// "<layer>.<operation>"; the layer prefix is what self time and the
// per-layer table aggregate by.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for the root
	Workload string `json:"workload"`
}

// recorder is the benchmark's in-memory span recorder. It lives in
// bench/ and wraps the calls the benchmark makes into each layer from
// outside; nothing inside the program is instrumented. All spans are
// opened and closed on the driving goroutine, so they nest strictly and
// a plain stack tracks the parent.
//
// A nil *recorder records nothing: untraced runs pay one nil check per
// call site.
type recorder struct {
	t0       time.Time
	workload string
	spans    []span
	stack    []int
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

func nopEnd() {}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return nopEnd
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartNs: int64(time.Since(r.t0)), Parent: parent, Workload: r.workload})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id].EndNs = int64(time.Since(r.t0))
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// durations returns the length in seconds of every closed span with the
// given name, in recording order.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// total is the summed duration of the named spans, in seconds.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part its child spans cover. Spans nest
// strictly, so the layers' self times add up to the root span's length.
func (r *recorder) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.EndNs > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans {
		if s.EndNs == 0 {
			continue
		}
		out[layerOf(s.Name)] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return out
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
