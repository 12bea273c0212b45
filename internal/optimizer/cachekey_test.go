package optimizer

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/query"
)

// KeyFor is the key a batch over s looks q up by, as a value. The key
// names no network state, so s changes nothing.
func (pc *PlanCache) KeyFor(s *Snapshot, q query.Query) PlanCacheKey {
	var k planKey
	k.set(q)
	return k.key()
}

// key materialises the probe as a map key, a string of its own.
func (k *planKey) key() PlanCacheKey {
	return PlanCacheKey{Consumer: k.consumer, Streams: string(k.streams)}
}

// Get looks a materialised key up through the batch's lookup path,
// counting the lookup as a hit when the entry is valid in the current
// snapshot, and returns the stored circuit's plan, or nil when the key
// has no entry.
func (pc *PlanCache) Get(k PlanCacheKey) *query.PlanNode {
	m, ok, valid := pc.get(&planKey{consumer: k.Consumer, streams: []byte(k.Streams)})
	if valid {
		pc.hits.Add(1)
	} else {
		pc.miss.Add(1)
	}
	if !ok {
		return nil
	}
	return m.plan
}

// canonicalStreamsFmt is the fmt-based encoder appendCanonicalStreams
// replaced, kept as its reference.
func canonicalStreamsFmt(q query.Query) string {
	ids := append([]query.StreamID(nil), q.Streams...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, s := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
		if sel, ok := q.FilterSel[s]; ok {
			fmt.Fprintf(&b, "[%.6g]", sel)
		}
	}
	if q.AggregateFraction > 0 {
		fmt.Fprintf(&b, "|agg=%.6g", q.AggregateFraction)
	}
	return b.String()
}

// fuzzSelectivities are the filter selectivities and aggregate fractions
// a fuzz input picks from besides raw float bits: the edges of the %g
// switch to exponent form, rounding carries at six digits, and the
// values the workloads use.
var fuzzSelectivities = [...]float64{
	0, 1, 0.5, 0.25, 0.8, 1e-9, 1.2345675e-9, 1e-5, 9.9999995e-5, 1e-4,
	0.1234565, 999999.5, 1e6, 123456.75, 1e20, 1e21, 9.999995e20, -0.5,
	math.Copysign(0, -1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64,
}

// fuzzQuery reads a query from the input: a stream count, then per
// stream an id (small, negative or large), whether it repeats the last
// one, and an optional selectivity; then an aggregate fraction.
func fuzzQuery(data []byte) query.Query {
	b := data
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	float := func() float64 {
		if v := next(); v < 128 {
			return fuzzSelectivities[int(v)%len(fuzzSelectivities)]
		}
		var raw [8]byte
		for i := range raw {
			raw[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	q := query.Query{Consumer: 3}
	for n := int(next() % 20); n > 0; n-- {
		var id query.StreamID
		switch v := next(); {
		case v < 64 && len(q.Streams) > 0:
			id = q.Streams[len(q.Streams)-1] // a duplicate
		case v < 128:
			id = query.StreamID(v % 24)
		case v < 192:
			id = -query.StreamID(v)
		default:
			id = query.StreamID(int64(v)<<40 | int64(next())<<8)
		}
		q.Streams = append(q.Streams, id)
		if next()&1 == 1 {
			if q.FilterSel == nil {
				q.FilterSel = map[query.StreamID]float64{}
			}
			q.FilterSel[id] = float()
		}
	}
	if next()&1 == 1 {
		q.AggregateFraction = float()
	}
	return q
}

// FuzzCanonicalStreamsMatchesFmt holds the plan cache's append encoder to
// the fmt encoder it replaced, byte for byte: two queries share a cache
// entry exactly when they did before.
func FuzzCanonicalStreamsMatchesFmt(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 1, 2, 1, 1})
	f.Add([]byte{12, 200, 1, 1, 5, 140, 1, 17, 2, 0, 9, 0, 100, 1, 255, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := fuzzQuery(data)
		want := canonicalStreamsFmt(q)
		if got := string(appendCanonicalStreams(nil, q)); got != want {
			t.Fatalf("encoder %q, fmt %q (query %+v)", got, want, q)
		}
		// Appending after a previous key leaves that prefix alone.
		if got := string(appendCanonicalStreams([]byte("prefix:"), q)); got != "prefix:"+want {
			t.Fatalf("appended %q, want %q", got, "prefix:"+want)
		}
	})
}
