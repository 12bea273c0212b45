// Package trace is the deterministic structured-event subsystem: every
// layer of the system (optimizer sweeps, the stream engine's tuple
// path, migrations, the adaptation loop, DHT lookups, fault injection,
// the failure detector) emits events and spans into one Tracer, stamped
// by the layer's clock. Under the virtual clock (package simtime) the
// whole run is serialized in event-key order, so same-seed runs
// produce bit-identical trace output — the exporters (export.go) are
// careful to keep serialization deterministic too (ordered args, fixed
// float formatting, no map iteration).
//
// The disabled path is a nil receiver: a nil *Tracer is a valid,
// always-off tracer whose methods return immediately, so hot paths hold
// a possibly-nil pointer and call it unconditionally. The only cost on
// the tuple path is one nil check (sub-nanosecond, benchmarked in the
// root BenchmarkTraceEmitDisabled).
package trace

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
)

// Phase classifies an event: an instant, or one end of a span.
type Phase uint8

const (
	// Instant is a point event.
	Instant Phase = iota
	// Begin opens a span; End closes it. The two share a span id.
	Begin
	// End closes the span opened by the Begin with the same id.
	End
)

// String returns the Chrome trace-event phase letter ("i", "B", "E").
func (p Phase) String() string {
	switch p {
	case Begin:
		return "B"
	case End:
		return "E"
	default:
		return "i"
	}
}

// Arg is one key/value pair on an event. Exactly one of Str or Num is
// meaningful, selected by IsNum. Args are an ordered slice, not a map,
// so serialization order is the emission order — deterministic.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string-valued argument.
func Str(key, val string) Arg { return Arg{Key: key, Str: val} }

// Num builds a float-valued argument.
func Num(key string, val float64) Arg { return Arg{Key: key, Num: val, IsNum: true} }

// Int builds an integer-valued argument (stored as a float; integral
// values up to 2^53 round-trip exactly).
func Int(key string, val int) Arg { return Arg{Key: key, Num: float64(val), IsNum: true} }

// Dur builds a duration argument in simulated milliseconds (one virtual
// clock millisecond per simulated millisecond).
func Dur(key string, d time.Duration) Arg {
	return Arg{Key: key, Num: float64(d) / float64(time.Millisecond), IsNum: true}
}

// Event is one recorded trace event.
type Event struct {
	// Seq is the global emission order (1-based).
	Seq uint64
	// T is the clock time elapsed since the tracer started.
	T time.Duration
	// Cat is the emitting layer ("optimizer", "engine", "adapt",
	// "dht", "overlay", "failure", ...).
	Cat string
	// Name identifies the event within its category.
	Name string
	// Ph is the event phase (instant / span begin / span end).
	Ph Phase
	// Span links Begin/End pairs; 0 on instants outside any span.
	Span uint64
	// Parent is the enclosing span's id for nested spans (migration
	// spans under an adaptation sweep, repair rounds under a failure
	// sweep); 0 for root spans and plain instants.
	Parent uint64
	// Args are the event's ordered payload fields.
	Args []Arg
}

// Tracer collects events. The zero value is not usable — construct with
// New. A nil *Tracer is the disabled tracer: every method on it is a
// no-op (SampleAt reports false), so callers never need to branch.
type Tracer struct {
	clock *simtime.VirtualClock
	start time.Time

	// limit bounds the event buffer; emissions past it are counted in
	// dropped rather than stored, so a runaway run degrades instead of
	// exhausting memory.
	limit   int
	dropped atomic.Uint64

	mu     sync.Mutex
	seq    uint64
	spanID uint64
	events []Event

	// sink, when set, receives each event as a JSONL line at emission
	// time instead of the event being retained in events — constant
	// memory regardless of run length (see StreamJSONL).
	sink    *bufio.Writer
	sinkBuf []byte
	sinkErr error
}

// sampleEvery is the sampling period of high-frequency event classes
// (tuple hops, fault drops): SampleAt reports true once per this many
// calls.
const sampleEvery = 64

// BufferLimit is the event-buffer cap (see Tracer.limit).
const BufferLimit = 1 << 20

// New builds a tracer stamping events with the given clock. Pass the
// clock the traced runtime runs on, so timestamps are exact simulated
// time and same-seed runs trace bit-identically. A nil clock is one
// that never advances: every event is stamped 0 until Rebase.
func New(clock *simtime.VirtualClock) *Tracer {
	if clock == nil {
		clock = simtime.NewVirtual()
	}
	return &Tracer{clock: clock, start: clock.Now(), limit: BufferLimit}
}

// Enabled reports whether the tracer records events. It is the
// idiomatic guard around expensive argument construction:
//
//	if tr.Enabled() { tr.Emit(...) }
func (t *Tracer) Enabled() bool { return t != nil }

// SampleAt reports whether a high-frequency event (a tuple hop, a fault
// drop) should be emitted this time: true on the first and then every
// 64th call against the same counter, always false on a nil tracer. The
// caller keeps one counter per deterministic execution domain (per
// node), so the decision sequence is a pure function of that domain's
// history and is identical under single-queue and sharded execution.
// The counter is not synchronized — each domain's events execute
// serially.
func (t *Tracer) SampleAt(ctr *uint64) bool {
	if t == nil {
		return false
	}
	*ctr++
	return *ctr%sampleEvery == 1
}

// EmitAtTime records an instant event stamped with the given clock
// time instead of the tracer clock's current reading. The sharded data
// plane uses it to flush shard-buffered emissions at barriers with
// their original event timestamps, so the exported bytes match a
// single-queue run's. No-op on a nil tracer.
func (t *Tracer) EmitAtTime(at time.Time, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recordLockedAt(Event{Cat: cat, Name: name, Ph: Instant, Args: args}, at.Sub(t.start))
	t.mu.Unlock()
}

// Emit records an instant event. No-op on a nil tracer.
func (t *Tracer) Emit(cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(Event{Cat: cat, Name: name, Ph: Instant, Args: args})
}

// Begin opens a span and returns its handle; close it with End. The
// zero Span (and any span from a nil tracer) is valid and inert.
func (t *Tracer) Begin(cat, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.spanID++
	id := t.spanID
	t.recordLocked(Event{Cat: cat, Name: name, Ph: Begin, Span: id, Args: args})
	t.mu.Unlock()
	return Span{t: t, id: id, cat: cat, name: name}
}

// Span is a handle to an open span.
type Span struct {
	t         *Tracer
	id        uint64
	parent    uint64
	cat, name string
}

// Active reports whether the span records anything (false for spans
// from a nil tracer and for the zero Span).
func (s Span) Active() bool { return s.t != nil }

// ParentID returns the enclosing span's id, 0 for root spans.
func (s Span) ParentID() uint64 { return s.parent }

// Child opens a span nested under s: the child's events carry s's id
// as Parent, and the Chrome exporter places the child on its root
// ancestor's track so Perfetto renders the nesting. A child of an
// inert span is inert.
func (s Span) Child(cat, name string, args ...Arg) Span {
	if s.t == nil {
		return Span{}
	}
	t := s.t
	t.mu.Lock()
	t.spanID++
	id := t.spanID
	t.recordLocked(Event{Cat: cat, Name: name, Ph: Begin, Span: id, Parent: s.id, Args: args})
	t.mu.Unlock()
	return Span{t: t, id: id, parent: s.id, cat: cat, name: name}
}

// End closes the span, attaching any final args to the end event.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.record(Event{Cat: s.cat, Name: s.name, Ph: End, Span: s.id, Parent: s.parent, Args: args})
}

// Emit records an instant event inside the span (same category, linked
// by the span id).
func (s Span) Emit(name string, args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.record(Event{Cat: s.cat, Name: name, Ph: Instant, Span: s.id, Parent: s.parent, Args: args})
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	t.recordLocked(ev)
	t.mu.Unlock()
}

func (t *Tracer) recordLocked(ev Event) {
	t.recordLockedAt(ev, t.clock.Since(t.start))
}

func (t *Tracer) recordLockedAt(ev Event, at time.Duration) {
	if t.sink == nil && len(t.events) >= t.limit && ev.Ph != End {
		// Span ends still record past the limit so open spans close in
		// the export; everything else is counted and dropped. A sink
		// bounds memory itself, so a streaming tracer drops nothing.
		t.dropped.Add(1)
		return
	}
	t.seq++
	ev.Seq = t.seq
	ev.T = at
	if t.sink != nil {
		t.writeLineLocked(ev) // streaming: retain nothing
		return
	}
	t.events = append(t.events, ev)
}

// writeLineLocked writes ev to the sink as one JSONL line, keeping the
// first write error for Flush.
func (t *Tracer) writeLineLocked(ev Event) {
	t.sinkBuf = appendJSONLEvent(t.sinkBuf[:0], ev)
	t.sinkBuf = append(t.sinkBuf, '\n')
	if _, err := t.sink.Write(t.sinkBuf); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
}

// StreamJSONL writes the trace to w as JSON Lines, one object per
// event:
//
//	{"seq":3,"t_us":1500,"cat":"adapt","name":"sweep","ph":"B","span":1,"args":{...}}
//
// t_us is microseconds of clock time since the tracer started (under
// the 1 virtual ms = 1 simulated ms convention, 1000 t_us = 1 sim-ms).
//
// It first writes the events already buffered; they stay buffered for
// WriteChromeTrace and WriteEventsJSON. Every later event is written
// as it is recorded and is not retained, and the buffer limit does not
// apply to it. So installed before a run the stream takes constant
// memory however long the run is, and installed after it, it is the
// export of the whole run. Writes are buffered; call Flush to push the
// tail through. No-op on a nil tracer.
func (t *Tracer) StreamJSONL(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = bufio.NewWriter(w)
	t.sinkErr = nil
	for _, ev := range t.events {
		t.writeLineLocked(ev)
	}
}

// Flush pushes any buffered streamed bytes to the underlying writer and
// returns the first error the sink has seen (write or flush). No-op
// (nil) when not streaming or on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink == nil {
		return nil
	}
	if err := t.sink.Flush(); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
	return t.sinkErr
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many emissions the buffer cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Events returns a snapshot copy of the recorded events in emission
// order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Rebase re-points the tracer at a new clock and zeroes the time
// origin at that clock's current reading. Experiment drivers that
// build their own virtual clock call this on caller-provided tracers
// so events stamp simulated time instead of a clock that never
// advances. Call before any events are recorded.
func (t *Tracer) Rebase(clock *simtime.VirtualClock) {
	if t == nil || clock == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	t.start = clock.Now()
}
