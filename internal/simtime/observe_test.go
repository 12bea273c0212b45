package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortObs is the barrier's order as it was computed before the lanes'
// runs were merged: the concatenation, sorted by (at, key, idx). It is
// the reference TestObservationMergeMatchesSort checks mergeObs against.
func sortObs(obs []obsEntry) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].at != obs[j].at {
			return obs[i].at < obs[j].at
		}
		if obs[i].key != obs[j].key {
			return obs[i].key < obs[j].key
		}
		return obs[i].idx < obs[j].idx
	})
}

// TestObservationMergeMatchesSort builds random per-lane runs the way
// lanes stage them — each in (at, key, idx) order, instants shared across
// lanes, several observations per event, closures and records mixed, some
// lanes empty — and requires the merge to equal the sort, to leave dst's
// prefix alone, and to clear what it drained.
func TestObservationMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rec := func(int, int, time.Time) {}
	for round := 0; round < 300; round++ {
		lanes := 1 + rng.Intn(16)
		runs := make([][]obsEntry, 0, lanes)
		var all []obsEntry
		for l := 0; l < lanes; l++ {
			// A lane executes its events in (at, key) order, and an event
			// executes in one lane: keys are unique across runs.
			type event struct {
				at  time.Duration
				key uint64
			}
			events := make([]event, rng.Intn(12))
			for i := range events {
				events[i] = event{time.Duration(rng.Intn(4)), uint64(rng.Intn(1<<20))<<8 | uint64(l)}
			}
			sort.Slice(events, func(i, j int) bool {
				if events[i].at != events[j].at {
					return events[i].at < events[j].at
				}
				return events[i].key < events[j].key
			})
			var run []obsEntry
			idx := uint64(rng.Intn(1000))
			for _, ev := range events {
				for k, m := 0, 1+rng.Intn(3); k < m; k++ {
					o := obsEntry{at: ev.at, key: ev.key, idx: idx, a: l, b: len(run)}
					if rng.Intn(2) == 0 {
						o.rec = rec
					} else {
						o.fn = func(time.Time) {}
					}
					idx++
					run = append(run, o)
				}
			}
			if len(run) > 0 || rng.Intn(2) == 0 {
				runs = append(runs, run)
			}
			all = append(all, run...)
		}
		if len(runs) == 0 {
			continue
		}
		sortObs(all)
		sentinel := obsEntry{a: -1, b: -1}
		staged := append([][]obsEntry(nil), runs...) // mergeObs consumes runs
		got := mergeObs([]obsEntry{sentinel}, runs)
		if got[0].a != -1 || len(got) != len(all)+1 {
			t.Fatalf("round %d: merged %d entries after the prefix, want %d", round, len(got)-1, len(all))
		}
		for i, want := range all {
			o := got[i+1]
			if o.at != want.at || o.key != want.key || o.idx != want.idx || o.a != want.a || o.b != want.b ||
				(o.rec == nil) != (want.rec == nil) || (o.fn == nil) != (want.fn == nil) {
				t.Fatalf("round %d entry %d: merged (%v, %#x, %d) of lane %d, sorted (%v, %#x, %d) of lane %d",
					round, i, o.at, o.key, o.idx, o.a, want.at, want.key, want.idx, want.a)
			}
		}
		for _, run := range staged {
			for _, o := range run {
				if o.fn != nil || o.rec != nil {
					t.Fatalf("round %d: a drained run still holds a callback", round)
				}
			}
		}
	}
}

// TestRecordsAndClosuresShareOneOrder: node events that each stage a
// closure, a record and another closure — many of them at equal instants
// in different lanes — are observed in one order on one lane, where a
// window's observations form one run, and on 4 lanes, where the barrier
// merges the lanes' runs; every observation sees the instant of the
// event that made it.
func TestRecordsAndClosuresShareOneOrder(t *testing.T) {
	const nodes, beats = 16, 20
	run := func(shards int) []string {
		laneOf := make([]int32, nodes)
		for i := range laneOf {
			laneOf[i] = int32(i % shards)
		}
		clk := NewVirtualSharded(laneOf, shards, 5*time.Millisecond)
		defer clk.Stop()
		var log []string // written by observations only: they run serially
		rec := func(n, k int, at time.Time) {
			log = append(log, fmt.Sprintf("%v node %d beat %d record", at.Sub(virtualEpoch), n, k))
		}
		for n := 0; n < nodes; n++ {
			n, dom, k, ev := n, Domain(n), 0, &Event{}
			ev.Fn = func() {
				now, k0 := clk.DomainNow(dom), k
				closure := func(which string) func(time.Time) {
					return func(at time.Time) {
						if !at.Equal(now) {
							t.Errorf("node %d beat %d observed at %v, emitted at %v", n, k0, at, now)
						}
						log = append(log, fmt.Sprintf("%v node %d beat %d %s", at.Sub(virtualEpoch), n, k0, which))
					}
				}
				clk.Observe(dom, closure("first"))
				clk.ObserveRecord(dom, rec, n, k)
				clk.Observe(dom, closure("last"))
				if k++; k < beats {
					clk.ScheduleEvent(ev, dom, dom, time.Duration(1+n%3)*time.Millisecond)
				}
			}
			clk.ScheduleEvent(ev, dom, dom, time.Duration(1+n%3)*time.Millisecond)
		}
		clk.Sleep(time.Second)
		return log
	}
	single, sharded := run(1), run(4)
	if len(single) != 3*nodes*beats {
		t.Fatalf("single queue observed %d times, want %d", len(single), 3*nodes*beats)
	}
	if len(sharded) != len(single) {
		t.Fatalf("4 lanes observed %d times, single queue %d", len(sharded), len(single))
	}
	for i := range single {
		if single[i] != sharded[i] {
			t.Fatalf("observation %d: single queue %q, 4 lanes %q", i, single[i], sharded[i])
		}
	}
}

// TestNowFromOutsideIsMonotone: Now takes no lock, so a goroutine that
// does not sleep on the clock may read it while a sleeper — and on 4
// lanes the barrier — advances it; the readings never go back. Run
// under -race.
func TestNowFromOutsideIsMonotone(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", shards), func(t *testing.T) {
			const nodes = 8
			laneOf := make([]int32, nodes)
			for i := range laneOf {
				laneOf[i] = int32(i % shards)
			}
			clk := NewVirtualSharded(laneOf, shards, time.Millisecond)
			defer clk.Stop()
			for n := 0; n < nodes; n++ {
				dom, ev := Domain(n), &Event{}
				ev.Fn = func() { clk.ScheduleEvent(ev, dom, dom, 100*time.Microsecond) }
				clk.ScheduleEvent(ev, dom, dom, 100*time.Microsecond)
				defer ev.Stop()
			}
			started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				last := clk.Now()
				for reads := 0; ; reads++ {
					select {
					case <-stop:
						return
					default:
					}
					if now := clk.Now(); now.Before(last) {
						t.Errorf("Now went back from %v to %v", last, now)
						return
					} else {
						last = now
					}
					if reads == 100 {
						close(started)
					}
				}
			}()
			<-started
			for i := 0; i < 20; i++ {
				clk.Sleep(50 * time.Millisecond)
				clk.AfterFunc(time.Millisecond, func() {}) // control pops advance the clock too
			}
			close(stop)
			<-done
			if got := clk.Now().Sub(virtualEpoch); got != time.Second {
				t.Fatalf("clock stands at %v after 20 sleeps of 50ms", got)
			}
		})
	}
}
