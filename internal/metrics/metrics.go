// Package metrics provides lightweight measurement primitives used by
// the SBON simulator and stream engine: concurrency-safe counters,
// sample histograms with exact quantiles and time series, a named
// registry, and Lanes, the unsynchronized per-lane counters of the
// sharded data plane.
//
// The package is deliberately dependency-free (stdlib only) and designed
// for deterministic tests: histograms store raw samples, so quantiles are
// exact, and time series are plain (time, value) slices.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 counter safe for
// concurrent use.
type Counter struct {
	bits atomic.Uint64
	// read, when set, makes this a read-through counter
	// (Registry.CounterFunc): Value is its result, and Add panics.
	read func() float64
}

// Add increments the counter by v. Negative v is ignored so that the
// counter remains monotone. Adding to a read-through counter is a
// programmer error and panics.
func (c *Counter) Add(v float64) {
	if c.read != nil {
		panic("metrics: Add on a read-through counter")
	}
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		nxt := math.Float64bits(cur + v)
		if c.bits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current counter value.
func (c *Counter) Value() float64 {
	if c.read != nil {
		return c.read()
	}
	return math.Float64frombits(c.bits.Load())
}

// Lanes is a set of counters kept as one row of plain slots per lane
// of the sharded data plane: a lane adds to its own row with no lock
// and no compare-and-swap, and rows are padded to whole 64-byte cache
// lines, so parallel lanes share no line. Totals, read between windows,
// add the rows in lane order: one lane gives the bits of a single
// running sum, and any lane count one deterministic value.
type Lanes struct {
	row int // slots per lane: the counters, rounded up to a cache line
	v   []float64
}

// NewLanes returns zeroed slots for n counters on each of lanes lanes
// (at least one).
func NewLanes(lanes, n int) Lanes {
	row := (n + 7) &^ 7
	return Lanes{row: row, v: make([]float64, max(lanes, 1)*row)}
}

// Add adds v to counter i of the lane. Like Counter.Add, it ignores a
// negative or NaN v.
func (l Lanes) Add(lane, i int, v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	l.v[lane*l.row+i] += v
}

// Get returns counter i of one lane.
func (l Lanes) Get(lane, i int) float64 { return l.v[lane*l.row+i] }

// Sum returns counter i summed over the lanes, in lane order.
func (l Lanes) Sum(i int) float64 {
	s := 0.0
	for j := i; j < len(l.v); j += l.row {
		s += l.v[j]
	}
	return s
}

// Histogram collects float64 samples and computes order statistics
// over them. It is safe for concurrent use. Every sample is retained,
// so quantiles are exact — the regime deterministic tests rely on.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool

	// Running aggregates, so Mean and Max need no pass over the samples.
	sum, max float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	if len(h.samples) == 0 || v > h.max {
		h.max = v
	}
	h.sum += v
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// ensureSortedLocked sorts the sample buffer if needed. Callers must hold mu.
func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank
// interpolation. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.ensureSortedLocked()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Max returns the largest observed sample, or 0 if empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Point is one (time, value) observation in a TimeSeries. Time is in
// simulated seconds (or any monotone unit the caller chooses).
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only sequence of timestamped values, safe for
// concurrent use.
type TimeSeries struct {
	mu  sync.Mutex
	pts []Point
}

// Record appends one observation.
func (ts *TimeSeries) Record(t, v float64) {
	ts.mu.Lock()
	ts.pts = append(ts.pts, Point{T: t, V: v})
	ts.mu.Unlock()
}

// Points returns a copy of all observations in insertion order.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Point, len(ts.pts))
	copy(out, ts.pts)
	return out
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.pts)
}

// Last returns the most recent observation and whether one exists.
func (ts *TimeSeries) Last() (Point, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.pts) == 0 {
		return Point{}, false
	}
	return ts.pts[len(ts.pts)-1], true
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	series     map[string]*TimeSeries
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*TimeSeries),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers name as a read-through counter: its Value is
// fn's result at each read (a sum of Lanes, say), reports list it like
// any other counter, and Add on it panics. A counter already registered
// under name becomes read-through, so earlier Counter pointers read fn.
func (r *Registry) CounterFunc(name string, fn func() float64) *Counter {
	c := r.Counter(name)
	c.read = fn
	return c
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Series returns the time series with the given name, creating it if
// needed.
func (r *Registry) Series(name string) *TimeSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &TimeSeries{}
		r.series[name] = s
	}
	return s
}
