package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterAdd(t *testing.T) {
	var c Counter
	c.Add(1.5)
	c.Add(2.5)
	if got := c.Value(); got != 4.0 {
		t.Fatalf("Value() = %v, want 4.0", got)
	}
}

func TestCounterIgnoresNegativeAndNaN(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	c.Add(math.NaN())
	if got := c.Value(); got != 3 {
		t.Fatalf("Value() = %v, want 3 (negative/NaN must be ignored)", got)
	}
}

func TestCounterInc(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 10 {
		t.Fatalf("Value() = %v, want 10", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value() = %v, want %v", got, workers*per)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{4, 1, 3, 2, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("Mean() = %v, want 3", got)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("Max() = %v, want 5", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("Quantile(0.5) = %v, want 3", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(10)
	if got := h.Quantile(0.25); got != 2.5 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", got)
	}
	if got := h.Quantile(0.75); got != 7.5 {
		t.Fatalf("Quantile(0.75) = %v, want 7.5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	h.Observe(1)
	if got := h.Count(); got != 1 {
		t.Fatalf("Count() = %d, want 1 (NaN ignored)", got)
	}
}

// Quantiles must be monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		var h Histogram
		ok := false
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		lo, hi := math.Min(qa, qb), math.Max(qa, qb)
		vlo, vhi := h.Quantile(lo), h.Quantile(hi)
		return vlo <= vhi && vlo >= h.Quantile(0) && vhi <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 2000 {
		t.Fatalf("Count() = %d, want 2000", got)
	}
}

func TestTimeSeriesRecordAndLast(t *testing.T) {
	var ts TimeSeries
	if _, ok := ts.Last(); ok {
		t.Fatal("Last() on empty series should report !ok")
	}
	ts.Record(1, 10)
	ts.Record(2, 20)
	pts := ts.Points()
	if len(pts) != 2 || pts[0] != (Point{1, 10}) || pts[1] != (Point{2, 20}) {
		t.Fatalf("Points() = %v", pts)
	}
	last, ok := ts.Last()
	if !ok || last != (Point{2, 20}) {
		t.Fatalf("Last() = %v, %v", last, ok)
	}
	if ts.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", ts.Len())
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Add(5)
	c2 := r.Counter("x")
	if c2.Value() != 5 {
		t.Fatal("Registry.Counter must return the same instance per name")
	}
	h1 := r.Histogram("z")
	h1.Observe(1)
	if r.Histogram("z").Count() != 1 {
		t.Fatal("Registry.Histogram must return the same instance per name")
	}
	s1 := r.Series("w")
	s1.Record(0, 0)
	if r.Series("w").Len() != 1 {
		t.Fatal("Registry.Series must return the same instance per name")
	}
}

func TestReportWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs.sent").Add(10)
	r.Histogram("lat").Observe(1)
	r.Series("usage").Record(1, 7)

	var buf bytes.Buffer
	rep := Report{Label: "test-run", Registry: r}
	rep.Trace = func(w io.Writer) error {
		_, err := w.Write([]byte(`[{"seq":1}]`))
		return err
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc["label"] != "test-run" {
		t.Fatalf("label = %v", doc["label"])
	}
	m := doc["metrics"].(map[string]any)
	if c := m["counters"].([]any); len(c) != 1 || c[0].(map[string]any)["value"].(float64) != 10 {
		t.Fatalf("counters = %v", c)
	}
	if h := m["histograms"].([]any); len(h) != 1 || h[0].(map[string]any)["max"].(float64) != 1 {
		t.Fatalf("histograms = %v", h)
	}
	// Series entries carry their full point data, not just a summary.
	series := m["series"].([]any)
	if len(series) != 1 {
		t.Fatalf("series = %v", series)
	}
	data := series[0].(map[string]any)["data"].([]any)
	if len(data) != 1 {
		t.Fatalf("series data = %v", data)
	}
	if pt := data[0].([]any); pt[0].(float64) != 1 || pt[1].(float64) != 7 {
		t.Fatalf("series point = %v", pt)
	}
	tr := doc["trace"].([]any)
	if len(tr) != 1 {
		t.Fatalf("trace = %v", tr)
	}
}

// TestCounterFuncReadsThrough checks a read-through counter: Value is
// its function's result (here per-lane slots summed in lane order), a
// report lists it like any other counter, and Add on it panics.
func TestCounterFuncReadsThrough(t *testing.T) {
	lanes := NewLanes(3, 2)
	r := NewRegistry()
	early := r.Counter("kb.sent") // looked up before it is registered
	c := r.CounterFunc("kb.sent", func() float64 { return lanes.Sum(1) })
	if c != early {
		t.Fatal("CounterFunc replaced the registered counter instead of reading through it")
	}
	lanes.Add(0, 1, 1.5)
	lanes.Add(2, 1, 2)
	lanes.Add(1, 0, 1)
	if got := early.Value(); got != 3.5 {
		t.Fatalf("Value() = %v, want 3.5", got)
	}

	var buf bytes.Buffer
	if err := (Report{Label: "lanes", Registry: r}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics struct {
			Counters []struct {
				Name  string
				Value float64
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if cs := doc.Metrics.Counters; len(cs) != 1 || cs[0].Name != "kb.sent" || cs[0].Value != 3.5 {
		t.Fatalf("counters = %+v, want kb.sent = 3.5", cs)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add on a read-through counter did not panic")
		}
	}()
	c.Add(1)
}

// TestLanesKeepCounterRules checks the per-lane slots against Counter:
// a negative or NaN amount is not counted, one lane reproduces a
// Counter's bits, and lanes sum in lane order.
func TestLanesKeepCounterRules(t *testing.T) {
	one := NewLanes(1, 3)
	var c Counter
	for _, v := range []float64{0.1, 0.7, -1, math.NaN(), 1e-17, 3.3} {
		one.Add(0, 2, v)
		c.Add(v)
	}
	if one.Sum(2) != c.Value() || one.Sum(0) != 0 || one.Sum(1) != 0 {
		t.Fatalf("one lane: slots %v %v %v, want 0 0 %v", one.Sum(0), one.Sum(1), one.Sum(2), c.Value())
	}

	// Added in another order these would not round to the same sum.
	four := NewLanes(4, 1)
	vals := []float64{1e16, 1, 1, 1}
	want, reversed := 0.0, 0.0
	for lane, v := range vals {
		four.Add(lane, 0, v)
		want += v
		reversed += vals[len(vals)-1-lane]
	}
	if want == reversed {
		t.Fatal("the lane values do not tell summation orders apart")
	}
	if four.Sum(0) != want || four.Get(0, 0) != 1e16 {
		t.Fatalf("Sum = %v, want the lane-order sum %v", four.Sum(0), want)
	}
}
