package stream

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/query"
)

// naiveJoin is the join as a scan: per side, the last `window` tuples in
// arrival order, probed front to back. It is the reference
// FuzzJoinMatchesNaive and TestJoinWindowMatchesNaiveScan check Join
// against.
type naiveJoin struct {
	window  int
	last    [2][]Tuple
	arrived [2]int
}

func (n *naiveJoin) process(side int, t Tuple) []Tuple {
	if n.last[side] = append(n.last[side], t); len(n.last[side]) > n.window {
		n.last[side] = n.last[side][1:]
	}
	n.arrived[side]++
	var out []Tuple
	for _, m := range n.last[1-side] {
		if m.Key == t.Key {
			out = append(out, Tuple{Stream: t.Stream, Key: t.Key, Value: t.Value + m.Value, SizeKB: t.SizeKB + m.SizeKB, Created: t.Created})
		}
	}
	return out
}

// stateSizeKB sums each side in ring-slot order — arrival a sits in slot
// a mod window, so slot s holds last[(s − arrived) mod len(last)] — and
// adds the two sums, as Join.StateSizeKB does.
func (n *naiveJoin) stateSizeKB() float64 {
	var total [2]float64
	for side, last := range n.last {
		for s := range last {
			total[side] += last[((s-n.arrived[side])%len(last)+len(last))%len(last)].SizeKB
		}
	}
	return total[0] + total[1]
}

// FuzzJoinMatchesNaive feeds the same tuples to a Join and to the naive
// scan. Two header bytes choose the window (1..64) and the keyspace
// (1..4·window); every following byte pair is one tuple: the side and
// its size from the first byte (sizes are multiples of 1/7, so a sum
// taken in another order shows), the key from the second. After every
// tuple both must have emitted the same tuples in the same order and
// report bit-equal state sizes.
func FuzzJoinMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 0})                                     // window 1, one key
	f.Add([]byte{7, 3, 0, 1, 1, 1, 2, 2, 3, 2, 4, 3, 5, 0, 6, 1, 7, 1, 8, 2, 9, 3}) // window 8 ≥ keyspace 4
	f.Add([]byte{63, 255, 9, 200, 30, 7, 77, 150, 2, 2, 90, 14, 91, 200})           // window 64, keyspace 256
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window := 1 + int(data[0])%64
		keyspace := 1 + int(data[1])%(4*window)
		j, ref := NewJoin(window, int64(keyspace)), &naiveJoin{window: window}
		var got []Tuple
		step := 0
		emit := func(tu Tuple) {
			if got = append(got, tu); len(got) > window {
				t.Fatalf("window %d keyspace %d step %d: more matches than the window holds (a chain loops)", window, keyspace, step)
			}
		}
		for ops := data[2:]; len(ops) >= 2; ops, step = ops[2:], step+1 {
			side := int(ops[0] & 1)
			tu := Tuple{
				Stream:  query.StreamID(side),
				Key:     int64(int(ops[1]) % keyspace),
				Value:   float64(step),
				SizeKB:  float64(ops[0]>>1) / 7,
				Created: time.Unix(int64(step), 0),
			}
			got = got[:0]
			j.Process(side, tu, emit)
			want := ref.process(side, tu)
			if len(got) != len(want) {
				t.Fatalf("window %d keyspace %d step %d: %d matches, want %d", window, keyspace, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window %d keyspace %d step %d match %d: %+v, want %+v", window, keyspace, step, i, got[i], want[i])
				}
			}
			if g, w := j.StateSizeKB(), ref.stateSizeKB(); g != w {
				t.Fatalf("window %d keyspace %d step %d: state %v KB, want %v", window, keyspace, step, g, w)
			}
		}
	})
}
