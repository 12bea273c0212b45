// Package stream is the SBON data plane: executable operators with real
// windowed semantics, producers that generate tuples at configured rates,
// and an engine that deploys optimizer circuits onto the overlay runtime
// and measures what actually flows.
//
// Rate semantics mirror the catalog's model (package query): a filter with
// selectivity s passes ≈ s of its input; a windowed equi-join over keys
// drawn uniformly from [0,K) with W tuples of window per side matches each
// probe with probability ≈ W/K, so its output rate is ≈ (W/K)·(rA+rB) —
// i.e. catalog selectivity sel corresponds to window/keyspace = sel; an
// aggregate over count-N windows emitting Frac·(window bytes) has output
// rate Frac·input.
package stream

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/hourglass/sbon/internal/query"
)

// Tuple is one stream data item.
type Tuple struct {
	Stream query.StreamID
	Key    int64
	Value  float64
	SizeKB float64
	// Created is the clock time the tuple entered the system at its
	// producer; consumer latency is measured against it.
	Created time.Time
}

// Emit forwards an operator output downstream.
type Emit func(Tuple)

// Operator is an executable service. Process is called in the hosting
// node's delivery events (serialized), with side identifying which input feeds
// the tuple (0 = left/only, 1 = right).
type Operator interface {
	Process(side int, t Tuple, emit Emit)
	// StateSizeKB estimates the operator's current mutable state in KB —
	// what a migration must ship to the new host. Stateless operators
	// report 0.
	StateSizeKB() float64
}

// keyFraction hashes a key to a uniform fraction in [0,1) for
// deterministic, rate-faithful selectivity decisions.
func keyFraction(key int64, salt uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	v := uint64(key)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
		buf[8+i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Filter passes tuples whose key hashes below Sel — a deterministic
// predicate with measured selectivity ≈ Sel over uniform keys.
type Filter struct {
	Sel  float64
	Salt uint64
}

// Process implements Operator.
func (f Filter) Process(_ int, t Tuple, emit Emit) {
	if keyFraction(t.Key, f.Salt) < f.Sel {
		emit(t)
	}
}

// StateSizeKB implements Operator: filters are stateless.
func (Filter) StateSizeKB() float64 { return 0 }

// Join is a symmetric windowed hash equi-join: each side keeps the last
// Window tuples hashed by key; an arriving tuple probes the opposite
// window and emits one combined tuple per match.
type Join struct {
	Window int // tuples retained per side (default 64)

	left  *joinWindow
	right *joinWindow
}

// NewJoin returns a join with the given per-side window size.
func NewJoin(window int) *Join {
	if window <= 0 {
		window = 64
	}
	return &Join{
		Window: window,
		left:   newJoinWindow(window),
		right:  newJoinWindow(window),
	}
}

// Process implements Operator.
func (j *Join) Process(side int, t Tuple, emit Emit) {
	mine, other := j.left, j.right
	if side == 1 {
		mine, other = j.right, j.left
	}
	mine.add(t)
	for s := other.oldest(t.Key); s >= 0; s = other.newer[s] {
		m := &other.fifo[s]
		out := Tuple{
			Stream: t.Stream,
			Key:    t.Key,
			Value:  t.Value + m.Value,
			SizeKB: t.SizeKB + m.SizeKB,
			// Latency is measured from the triggering (probe) tuple: the
			// matched tuple's window residency is state age, not
			// delivery delay.
			Created: t.Created,
		}
		emit(out)
	}
}

// StateSizeKB implements Operator: both windows' retained tuple bytes.
func (j *Join) StateSizeKB() float64 {
	return j.left.sizeKB() + j.right.sizeKB()
}

// joinWindow is a fixed-capacity FIFO with a key index threaded
// through it: the slots holding one key form a chain, oldest first.
// The index is an open-addressing table sized once for the window — at
// most cap keys are live, in a power-of-two table of at least 2·cap
// entries — so a window allocates nothing per tuple and probes a few
// adjacent entries instead of hashing into a map.
type joinWindow struct {
	cap   int
	fifo  []Tuple
	next  int
	count int
	// newer[s] is the next slot, in arrival order, holding the same key
	// as slot s; -1 ends the chain.
	newer []int32
	// index maps a live key to its chain by linear probing from the
	// key's home entry; shift turns a hash into a home.
	index []keyChain
	shift uint
}

// keyChain is one index entry: the oldest and the newest slot holding
// key; head < 0 marks the entry empty.
type keyChain struct {
	key        int64
	head, tail int32
}

func newJoinWindow(capacity int) *joinWindow {
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	w := &joinWindow{
		cap:   capacity,
		fifo:  make([]Tuple, capacity),
		newer: make([]int32, capacity),
		index: make([]keyChain, 1<<bits),
		shift: 64 - bits,
	}
	for i := range w.index {
		w.index[i].head = -1
	}
	return w
}

// home is the entry a key's probe sequence starts at: the top bits of a
// multiplicative (Fibonacci) hash.
func (w *joinWindow) home(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> w.shift)
}

// find returns the index of the key's entry, or of the empty entry that
// ends its probe sequence. The table is never more than half full (add
// evicts before it inserts), so the scan ends.
func (w *joinWindow) find(key int64) int {
	mask := len(w.index) - 1
	for i := w.home(key); ; i = (i + 1) & mask {
		if e := &w.index[i]; e.head < 0 || e.key == key {
			return i
		}
	}
}

// removeAt empties entry hole and closes the gap it leaves: every entry
// after it, up to the next empty one, moves back into the hole if the
// hole lies on its probe path — cyclically between its home and where
// it sits.
func (w *joinWindow) removeAt(hole int) {
	mask := len(w.index) - 1
	for i := (hole + 1) & mask; w.index[i].head >= 0; i = (i + 1) & mask {
		if (i-w.home(w.index[i].key))&mask >= (i-hole)&mask {
			w.index[hole] = w.index[i]
			hole = i
		}
	}
	w.index[hole].head = -1
}

func (w *joinWindow) add(t Tuple) {
	slot := int32(w.next)
	if w.count == w.cap {
		// The slot being overwritten holds the oldest tuple of all, so
		// it heads its key's chain.
		i := w.find(w.fifo[slot].Key)
		if ch := &w.index[i]; ch.head == ch.tail {
			w.removeAt(i)
		} else {
			ch.head = w.newer[slot]
		}
	} else {
		w.count++
	}
	w.fifo[slot] = t
	w.newer[slot] = -1
	ch := &w.index[w.find(t.Key)]
	if ch.head >= 0 {
		w.newer[ch.tail] = slot
	} else {
		ch.key, ch.head = t.Key, slot
	}
	ch.tail = slot
	w.next = (w.next + 1) % w.cap
}

func (w *joinWindow) sizeKB() float64 {
	var sum float64
	for i := 0; i < w.count; i++ {
		sum += w.fifo[i].SizeKB
	}
	return sum
}

// oldest returns the slot of the oldest retained tuple with the key, or
// -1; following newer from it visits every match in arrival order.
func (w *joinWindow) oldest(key int64) int32 {
	return w.index[w.find(key)].head
}

// Aggregate reduces count-N tumbling windows: after every N inputs it
// emits one tuple whose value is the window mean and whose size is Frac
// of the window's bytes, giving output rate Frac·input rate. The output
// carries the closing (triggering) tuple's timestamp.
type Aggregate struct {
	N    int
	Frac float64

	count  int
	sum    float64
	sizeKB float64
}

// NewAggregate returns an aggregate with window N and output fraction
// frac.
func NewAggregate(n int, frac float64) *Aggregate {
	if n <= 0 {
		n = 10
	}
	return &Aggregate{N: n, Frac: frac}
}

// Process implements Operator.
func (a *Aggregate) Process(_ int, t Tuple, emit Emit) {
	a.count++
	a.sum += t.Value
	a.sizeKB += t.SizeKB
	if a.count < a.N {
		return
	}
	out := Tuple{
		Stream:  t.Stream,
		Key:     t.Key,
		Value:   a.sum / float64(a.count),
		SizeKB:  a.sizeKB * a.Frac,
		Created: t.Created,
	}
	a.count, a.sum, a.sizeKB = 0, 0, 0
	emit(out)
}

// StateSizeKB implements Operator: the open window's accumulated bytes.
func (a *Aggregate) StateSizeKB() float64 { return a.sizeKB }

// Union forwards both inputs unchanged.
type Union struct{}

// Process implements Operator.
func (Union) Process(_ int, t Tuple, emit Emit) { emit(t) }

// StateSizeKB implements Operator: unions are stateless.
func (Union) StateSizeKB() float64 { return 0 }

// OperatorFor instantiates the executable operator for a plan node. The
// join window is sized to sel·keyspace/2: each probe then matches
// sel/2 of the time, and since a joined tuple carries both inputs (≈2×
// the bytes), the output *data rate* lands on the catalog model's
// sel·(rateL+rateR) KB/s.
func OperatorFor(n *query.PlanNode, keyspace int64) (Operator, error) {
	switch n.Kind {
	case query.KindFilter:
		return Filter{Sel: n.Sel}, nil
	case query.KindJoin:
		w := int(n.Sel * float64(keyspace) / 2)
		if w < 1 {
			w = 1
		}
		return NewJoin(w), nil
	case query.KindAggregate:
		return NewAggregate(10, n.Sel), nil
	case query.KindUnion:
		return Union{}, nil
	default:
		return nil, fmt.Errorf("stream: no operator for plan kind %v", n.Kind)
	}
}
