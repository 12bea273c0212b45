// Package stream is the SBON data plane: executable operators with real
// windowed semantics, producers that generate tuples at configured rates,
// and an engine that deploys optimizer circuits onto the overlay runtime
// and measures what actually flows.
//
// Rate semantics mirror the catalog's model (package query): a filter with
// selectivity s passes ≈ s of its input; a windowed equi-join over keys
// drawn uniformly from [0,K) with W tuples of window per side matches each
// probe with probability ≈ W/K, so its output rate is ≈ (W/K)·(rA+rB)
// tuples. OperatorFor sizes the window to W = sel·K/2, because a joined
// tuple carries both inputs' bytes: the output data rate then lands on
// the catalog's sel·(rA+rB) when the inputs' tuples are of equal size. An
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

// Join is a symmetric windowed equi-join: each side keeps its last
// Window tuples in a ring, and an arriving tuple probes the opposite
// ring and emits one combined tuple per match, oldest first.
//
// One key table, indexed directly by key, holds for each side the
// oldest and the newest slot of that key; the slots of one key on one
// side are chained oldest to newest through the ring. So a tuple reads
// the slot it evicts (the one it overwrites), fixes the evicted key's
// entry, appends to its own key's entry and walks the other side's
// chain from that same entry: no hashing and no probing, and the whole
// join is allocated once when it is built.
type Join struct {
	Window int // tuples retained per side (default 64)

	// keys[k] chains key k on both sides; keys are in [0, keyspace) by
	// construction (producers draw them, every operator passes them on).
	keys []keyChains
	// slots holds both rings: side s owns slots[s·Window, (s+1)·Window).
	slots []joinSlot
	next  [2]int32 // the slot each side writes next
	count [2]int32 // live slots per side
}

// keyChains is one key's entry: per side, the oldest and the newest
// slot holding the key; head < 0 marks that side empty.
type keyChains struct {
	head, tail [2]int32
}

// joinSlot is one retained tuple: what eviction and a match read. The
// probe supplies Stream and Created.
type joinSlot struct {
	key           int64
	value, sizeKB float64
	// newer is the next slot, in arrival order, holding the same key on
	// the same side; -1 ends the chain.
	newer int32
}

// NewJoin returns a join with the given per-side window size over keys
// in [0, keyspace); keyspace must be positive.
func NewJoin(window int, keyspace int64) *Join {
	if window <= 0 {
		window = 64
	}
	j := &Join{
		Window: window,
		keys:   make([]keyChains, keyspace),
		slots:  make([]joinSlot, 2*window),
		next:   [2]int32{0, int32(window)},
	}
	for i := range j.keys {
		j.keys[i].head = [2]int32{-1, -1}
	}
	return j
}

// Process implements Operator.
func (j *Join) Process(side int, t Tuple, emit Emit) {
	slot := j.next[side]
	s := &j.slots[slot]
	if j.count[side] == int32(j.Window) {
		// The slot being overwritten holds this side's oldest tuple, so
		// it heads its key's chain; a sole slot's newer empties it.
		j.keys[s.key].head[side] = s.newer
	} else {
		j.count[side]++
	}
	*s = joinSlot{key: t.Key, value: t.Value, sizeKB: t.SizeKB, newer: -1}
	e := &j.keys[t.Key]
	if e.head[side] >= 0 {
		j.slots[e.tail[side]].newer = slot
	} else {
		e.head[side] = slot
	}
	e.tail[side] = slot
	if slot++; slot == int32((side+1)*j.Window) {
		slot -= int32(j.Window)
	}
	j.next[side] = slot
	for m := e.head[1-side]; m >= 0; m = j.slots[m].newer {
		ms := &j.slots[m]
		emit(Tuple{
			Stream: t.Stream,
			Key:    t.Key,
			Value:  t.Value + ms.value,
			SizeKB: t.SizeKB + ms.sizeKB,
			// Latency is measured from the triggering (probe) tuple: the
			// matched tuple's window residency is state age, not
			// delivery delay.
			Created: t.Created,
		})
	}
}

// StateSizeKB implements Operator: both windows' retained tuple bytes,
// each side summed in slot order.
func (j *Join) StateSizeKB() float64 {
	side := func(s int) float64 {
		var sum float64
		for _, sl := range j.slots[s*j.Window:][:j.count[s]] {
			sum += sl.sizeKB
		}
		return sum
	}
	return side(0) + side(1)
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

// OperatorFor instantiates the executable operator for a plan node over
// keys in [0, keyspace), which must be positive: a join's key table has
// one entry per key. The join window is sized to sel·keyspace/2: each
// probe then matches sel/2 of the time, and since a joined tuple
// carries both inputs (≈2× the bytes), the output *data rate* lands on
// the catalog model's sel·(rateL+rateR) KB/s.
func OperatorFor(n *query.PlanNode, keyspace int64) (Operator, error) {
	if keyspace <= 0 {
		return nil, fmt.Errorf("stream: keyspace %d, want > 0", keyspace)
	}
	switch n.Kind {
	case query.KindFilter:
		return Filter{Sel: n.Sel}, nil
	case query.KindJoin:
		w := int(n.Sel * float64(keyspace) / 2)
		if w < 1 {
			w = 1
		}
		return NewJoin(w, keyspace), nil
	case query.KindAggregate:
		return NewAggregate(10, n.Sel), nil
	case query.KindUnion:
		return Union{}, nil
	default:
		return nil, fmt.Errorf("stream: no operator for plan kind %v", n.Kind)
	}
}
