// Exporters. Both formats are hand-serialized: args keep emission
// order, floats use strconv's shortest round-trip form, and category →
// track assignment follows first appearance — so a deterministic event
// stream exports to deterministic bytes, which is what the same-seed
// bit-identical contract tests compare.
package trace

import (
	"bufio"
	"io"
	"strconv"
)

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendFloat appends v in the shortest form that round-trips — the
// fixed float convention both exporters share.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendArgs appends the args as a JSON object body (no braces).
func appendArgs(b []byte, args []Arg) []byte {
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		if a.IsNum {
			b = appendFloat(b, a.Num)
		} else {
			b = appendJSONString(b, a.Str)
		}
	}
	return b
}

// appendJSONLEvent appends one event as its JSON object (no trailing
// newline): a StreamJSONL line and a WriteEventsJSON array element.
func appendJSONLEvent(b []byte, ev Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"t_us":`...)
	b = appendFloat(b, float64(ev.T.Nanoseconds())/1e3)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, ev.Cat)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, ev.Name)
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, ev.Ph.String())
	if ev.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, ev.Span, 10)
	}
	if ev.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, ev.Parent, 10)
	}
	if len(ev.Args) > 0 {
		b = append(b, `,"args":{`...)
		b = appendArgs(b, ev.Args)
		b = append(b, '}')
	}
	return append(b, '}')
}

// WriteChromeTrace writes the run in the Chrome trace-event format
// (JSON object form), loadable directly in Perfetto (ui.perfetto.dev)
// or chrome://tracing. Each category becomes its own named track
// (pid 0, tid = category index in first-appearance order); span
// begin/end map to "B"/"E" duration events and instants to "i" with
// global scope, all timestamped in microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	events := t.Events()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	// Category → tid in first-appearance order (deterministic). Nested
	// spans are re-homed onto their root ancestor's track — B/E events
	// on one tid nest by time containment in Perfetto, which is what
	// renders migration/repair sub-spans inside their sweep span — so
	// the category scan resolves each span event to its root category
	// first.
	spanParent := map[uint64]uint64{}
	spanCat := map[uint64]string{}
	for _, ev := range events {
		if ev.Ph == Begin {
			spanParent[ev.Span] = ev.Parent
			spanCat[ev.Span] = ev.Cat
		}
	}
	rootCat := func(ev Event) string {
		if ev.Span == 0 {
			return ev.Cat
		}
		id := ev.Span
		for depth := 0; depth < 64; depth++ { // cycle guard
			p, ok := spanParent[id]
			if !ok || p == 0 {
				break
			}
			id = p
		}
		if cat, ok := spanCat[id]; ok {
			return cat
		}
		return ev.Cat
	}
	tids := map[string]int{}
	order := []string{}
	for _, ev := range events {
		if cat := rootCat(ev); true {
			if _, ok := tids[cat]; !ok {
				tids[cat] = len(order)
				order = append(order, cat)
			}
		}
	}
	var b []byte
	first := true
	comma := func() {
		if !first {
			b = append(b, ',')
		}
		first = false
	}
	// Track-name metadata events come first so viewers label the rows.
	for i, cat := range order {
		b = b[:0]
		comma()
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"thread_name","args":{"name":`...)
		b = appendJSONString(b, cat)
		b = append(b, `}}`...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	for _, ev := range events {
		b = b[:0]
		comma()
		b = append(b, `{"ph":`...)
		b = appendJSONString(b, ev.Ph.String())
		b = append(b, `,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(tids[rootCat(ev)]), 10)
		b = append(b, `,"ts":`...)
		b = appendFloat(b, float64(ev.T.Nanoseconds())/1e3)
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, ev.Cat)
		b = append(b, `,"name":`...)
		b = appendJSONString(b, ev.Name)
		if ev.Ph == Instant {
			b = append(b, `,"s":"g"`...)
		}
		b = append(b, `,"args":{`...)
		if ev.Span != 0 {
			b = append(b, `"span":`...)
			b = strconv.AppendUint(b, ev.Span, 10)
			if ev.Parent != 0 {
				b = append(b, `,"parent":`...)
				b = strconv.AppendUint(b, ev.Parent, 10)
			}
			if len(ev.Args) > 0 {
				b = append(b, ',')
			}
		}
		b = appendArgs(b, ev.Args)
		b = append(b, `}}`...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(`]}`); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEventsJSON writes the events as one JSON array (the StreamJSONL
// lines joined by commas) — the trace section a metrics.Report embeds.
func (t *Tracer) WriteEventsJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	bw := bufio.NewWriter(w)
	if err := bw.WriteByte('['); err != nil {
		return err
	}
	var b []byte
	for i, ev := range t.Events() {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONLEvent(b, ev)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(']'); err != nil {
		return err
	}
	return bw.Flush()
}
