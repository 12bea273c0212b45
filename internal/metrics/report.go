// Run reports: one JSON document merging a registry snapshot with the
// run's trace. The registry side is serialized here with sorted names
// (deterministic bytes for a deterministic run); the trace side is an
// opaque JSON value written by the caller-supplied function — typically
// (*trace.Tracer).WriteEventsJSON — so this package stays stdlib-only.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Report is a run-scoped export: a label, the registry's full state,
// and optionally the run's trace merged into the same document.
type Report struct {
	// Label names the run (a scenario name, a seed, a timestamp — the
	// caller's choice; keep it seed-derived for deterministic output).
	Label string
	// Registry is the metric registry to snapshot. Required.
	Registry *Registry
	// Trace, when non-nil, writes the "trace" section as one JSON value
	// (e.g. trace.Tracer.WriteEventsJSON). Nil omits the section.
	Trace func(io.Writer) error
}

func appendQuoted(b []byte, s string) []byte { return strconv.AppendQuote(b, s) }

func appendNum(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteJSON writes the report as one JSON object:
//
//	{"label":...,
//	 "metrics":{"counters":[{"name":...,"value":...},...],
//	            "histograms":[{"name":...,"count":...,"mean":...,"p50":...,"p95":...,"max":...},...],
//	            "series":[{"name":...,"points":...,"last":...,"data":[[t,v],...]},...]},
//	 "trace":[...]}
func (r Report) WriteJSON(w io.Writer) error {
	if r.Registry == nil {
		return fmt.Errorf("metrics: report needs a registry")
	}
	bw := bufio.NewWriter(w)
	var b []byte
	b = append(b, `{"label":`...)
	b = appendQuoted(b, r.Label)
	b = append(b, `,"metrics":{`...)

	reg := r.Registry
	reg.mu.Lock()
	counters := sortedKeys(reg.counters)
	hists := sortedKeys(reg.histograms)
	series := sortedKeys(reg.series)
	reg.mu.Unlock()

	b = append(b, `"counters":[`...)
	for i, n := range counters {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendQuoted(b, n)
		b = append(b, `,"value":`...)
		b = appendNum(b, reg.Counter(n).Value())
		b = append(b, '}')
	}
	b = append(b, `],"histograms":[`...)
	for i, n := range hists {
		if i > 0 {
			b = append(b, ',')
		}
		h := reg.Histogram(n)
		b = append(b, `{"name":`...)
		b = appendQuoted(b, n)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(h.Count()), 10)
		b = append(b, `,"mean":`...)
		b = appendNum(b, h.Mean())
		b = append(b, `,"p50":`...)
		b = appendNum(b, h.Quantile(0.5))
		b = append(b, `,"p95":`...)
		b = appendNum(b, h.Quantile(0.95))
		b = append(b, `,"max":`...)
		b = appendNum(b, h.Max())
		b = append(b, '}')
	}
	b = append(b, `],"series":[`...)
	for i, n := range series {
		if i > 0 {
			b = append(b, ',')
		}
		ts := reg.Series(n)
		last, _ := ts.Last()
		b = append(b, `{"name":`...)
		b = appendQuoted(b, n)
		b = append(b, `,"points":`...)
		b = strconv.AppendInt(b, int64(ts.Len()), 10)
		b = append(b, `,"last":`...)
		b = appendNum(b, last.V)
		b = append(b, `,"data":[`...)
		for j, p := range ts.Points() {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = appendNum(b, p.T)
			b = append(b, ',')
			b = appendNum(b, p.V)
			b = append(b, ']')
		}
		b = append(b, `]}`...)
	}
	b = append(b, `]}`...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if r.Trace != nil {
		if _, err := bw.WriteString(`,"trace":`); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := r.Trace(w); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("}"); err != nil {
		return err
	}
	return bw.Flush()
}

func sortedKeys[T any](m map[string]*T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
