package scenario

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/workload"
)

// smallSpec is a 256-node overlay with a dozen 1-2-stream queries.
func smallSpec() Spec {
	spec := Spec{
		Seed:     7,
		Topology: topology.DefaultConfig(),
		Streams:  workload.DefaultStreamConfig(),
		Queries:  workload.DefaultQueryConfig(),
	}
	spec.Topology.StubNodes = 5
	spec.Queries.NumQueries = 12
	spec.Queries.StreamsPerQuery = [2]int{1, 2}
	spec.Queries.AggregateProb = 0
	return spec
}

// running builds the spec's World with every query optimized, deployed
// and executing.
func running(t *testing.T, spec Spec) *World {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	results, err := optimizer.OptimizeBatch(w.Env, w.Queries, optimizer.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartDataPlane(); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if err := w.Deploy(results[i].Circuit); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestStagesRunAndCloseRepeats(t *testing.T) {
	spec := smallSpec()
	spec.DataShards = 4
	w := running(t, spec)
	if w.Net.DataShards() != 4 || w.Lookahead <= 0 {
		t.Fatalf("data plane on %d queues, lookahead %v; want 4 and > 0", w.Net.DataShards(), w.Lookahead)
	}
	if err := w.StartDataPlane(); err == nil {
		t.Fatal("second StartDataPlane accepted")
	}
	w.InjectFaults(overlay.FaultPlan{Seed: spec.Seed, DropProb: 0.01,
		Crashes: StaggerCrashes(w.CrashVictims(1, true), 500*time.Millisecond, 0)})
	w.StartFailureDetection(200 * time.Millisecond)
	w.SimSleep(2)
	produced, delivered := w.Quiesce()
	if produced == 0 || delivered == 0 {
		t.Fatalf("produced %d, delivered %d tuples; want both > 0", produced, delivered)
	}
	if died := w.Detector.Snapshot().Deaths; died != 1 {
		t.Fatalf("detector confirmed %d deaths, want the 1 injected", died)
	}
	w.Close()
	w.Close()
	if err := w.StartDataPlane(); err == nil {
		t.Fatal("StartDataPlane on a closed World accepted")
	}
}

// TestSpecErrors: Build reports a spec it cannot build as an error.
func TestSpecErrors(t *testing.T) {
	spec := smallSpec()
	spec.Ticker = &Ticker{Samples: 0, Interval: 200 * time.Millisecond, WarmRounds: 2}
	if _, err := Build(spec); err == nil {
		t.Fatal("a ticker sampling no peers accepted")
	}
	spec = smallSpec()
	spec.Topology.StubNodes = 0
	if _, err := Build(spec); err == nil {
		t.Fatal("a topology without stub nodes accepted")
	}
}

func TestCrashVictims(t *testing.T) {
	w := running(t, smallSpec())
	endpoint, opHost := map[topology.NodeID]bool{}, map[topology.NodeID]bool{}
	for _, run := range w.Runs {
		for _, s := range run.Circuit.Services {
			if s.Pinned {
				endpoint[s.Node] = true
			} else {
				opHost[s.Node] = true
			}
		}
	}
	for n := range endpoint {
		delete(opHost, n)
	}
	for _, fromOps := range []bool{true, false} {
		victims := w.CrashVictims(10, fromOps)
		if len(victims) != 10 {
			t.Fatalf("drew %d victims, want 10", len(victims))
		}
		seen, ops := map[topology.NodeID]bool{}, 0
		for _, n := range victims {
			if endpoint[n] || seen[n] {
				t.Fatalf("victim %d is an endpoint or drawn twice", n)
			}
			seen[n] = true
			if opHost[n] {
				ops++
			}
		}
		if want := min(5, len(opHost)); fromOps && ops < want {
			t.Fatalf("%d of 10 victims host operators, want >= %d", ops, want)
		}
	}
	if got := w.CrashVictims(0, false); len(got) != 0 {
		t.Fatalf("CrashVictims(0) drew %v", got)
	}
	crashes := StaggerCrashes(w.CrashVictims(3, false), time.Second, 2*time.Second)
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if crashes[i].At != want {
			t.Fatalf("crash %d at %v, want %v", i, crashes[i].At, want)
		}
	}
}
