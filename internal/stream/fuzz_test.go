package stream

import (
	"fmt"
	"testing"
)

// mapWindow is the join window as it was before its key index became an
// open-addressing table: the same FIFO and chains, indexed by a Go map.
// It is the reference FuzzJoinWindowMatchesMap checks joinWindow against.
type mapWindow struct {
	cap   int
	fifo  []Tuple
	next  int
	count int
	newer []int32
	byKey map[int64][2]int32 // head, tail
}

func newMapWindow(capacity int) *mapWindow {
	return &mapWindow{
		cap:   capacity,
		fifo:  make([]Tuple, capacity),
		newer: make([]int32, capacity),
		byKey: make(map[int64][2]int32),
	}
}

func (w *mapWindow) add(t Tuple) {
	slot := int32(w.next)
	if w.count == w.cap {
		old := w.fifo[slot].Key
		if ch := w.byKey[old]; ch[0] == ch[1] {
			delete(w.byKey, old)
		} else {
			ch[0] = w.newer[slot]
			w.byKey[old] = ch
		}
	} else {
		w.count++
	}
	w.fifo[slot] = t
	w.newer[slot] = -1
	ch, ok := w.byKey[t.Key]
	if ok {
		w.newer[ch[1]] = slot
	} else {
		ch[0] = slot
	}
	ch[1] = slot
	w.byKey[t.Key] = ch
	w.next = (w.next + 1) % w.cap
}

func (w *mapWindow) oldest(key int64) int32 {
	if ch, ok := w.byKey[key]; ok {
		return ch[0]
	}
	return -1
}

func (w *mapWindow) sizeKB() float64 {
	var sum float64
	for i := 0; i < w.count; i++ {
		sum += w.fifo[i].SizeKB
	}
	return sum
}

// FuzzJoinWindowMatchesMap turns bytes into add / probe sequences on the
// table-indexed window and the map-indexed reference side by side. Three
// header bytes choose the capacity (1..64), the keyspace (1..4·cap) and
// how keys are spread: consecutive, a wide stride, or picked so that
// every key's home entry lies in the last two or the first two entries
// of the table — the probe runs that wrap, where backward-shift delete's
// cyclic interval test is easiest to get wrong. Every following pair of
// bytes adds one tuple and probes one key (possibly one never added);
// both windows must return the same chain of slots for the added key,
// the probed key and, every 16 adds and at the end, every key, hold the
// same number of live keys, and report the same state size.
func FuzzJoinWindowMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})                           // cap 1, one key
	f.Add([]byte{7, 40, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}) // cap 8, wrapping homes
	f.Add([]byte{63, 255, 1, 9, 200, 31, 7, 77, 150, 2, 2, 90, 14})    // cap 64, full keyspace, stride
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capacity := 1 + int(data[0])%64
		keyspace := 1 + int(data[1])%(4*capacity)
		w, ref := newJoinWindow(capacity), newMapWindow(capacity)

		keys := make([]int64, keyspace+1) // the last one is never added
		switch data[2] % 3 {
		case 0:
			for i := range keys {
				keys[i] = int64(i)
			}
		case 1:
			for i := range keys {
				keys[i] = int64(i)*0x1_0000_0001 - 7
			}
		default:
			size := len(w.index)
			for i, k := 0, int64(0); i < len(keys); k++ {
				if h := w.home(k); h < 2 || h >= size-2 {
					keys[i] = k
					i++
				}
			}
		}

		chain := func(oldest int32, newer []int32) []int32 {
			var slots []int32
			for s := oldest; s >= 0; s = newer[s] {
				if slots = append(slots, s); len(slots) > capacity {
					t.Fatalf("chain longer than the window: %v", slots)
				}
			}
			return slots
		}
		check := func(step int, key int64) {
			got, want := chain(w.oldest(key), w.newer), chain(ref.oldest(key), ref.newer)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cap %d keyspace %d step %d key %d: chain %v, want %v", capacity, keyspace, step, key, got, want)
			}
			for _, s := range got {
				if w.fifo[s] != ref.fifo[s] {
					t.Fatalf("cap %d step %d slot %d: holds %+v, want %+v", capacity, step, s, w.fifo[s], ref.fifo[s])
				}
			}
		}
		checkAll := func(step int) {
			for _, k := range keys {
				check(step, k)
			}
			live := 0
			for _, e := range w.index {
				if e.head >= 0 {
					live++
				}
			}
			if live != len(ref.byKey) {
				t.Fatalf("cap %d step %d: %d live index entries, want %d", capacity, step, live, len(ref.byKey))
			}
			if got, want := w.sizeKB(), ref.sizeKB(); got != want {
				t.Fatalf("cap %d step %d: state %v KB, want %v", capacity, step, got, want)
			}
		}

		step := 0
		for ops := data[3:]; len(ops) >= 2; ops, step = ops[2:], step+1 {
			tu := Tuple{Key: keys[int(ops[0])%keyspace], Value: float64(step), SizeKB: float64(1 + ops[0]%3)}
			w.add(tu)
			ref.add(tu)
			check(step, tu.Key)
			check(step, keys[int(ops[1])%len(keys)])
			if step%16 == 15 {
				checkAll(step)
			}
		}
		checkAll(step)
	})
}
