package sbon_test

import (
	"testing"

	sbon "github.com/hourglass/sbon"
)

// shardScaleSystem builds the fixture for the sharded-vs-global
// comparison tests: the paper-scale topology with four streams.
func shardScaleSystem(t *testing.T) *sbon.System {
	t.Helper()
	sys, err := sbon.New(sbon.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	stubs := sys.StubNodes()
	for i := 0; i < 4; i++ {
		if err := sys.AddStream(sbon.StreamID(i), stubs[i*140], 100); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func shardScaleWorkload(sys *sbon.System, n int) []sbon.Query {
	sets := [][]sbon.StreamID{{0, 1}, {1, 2}, {2, 3}, {0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3}}
	stubs := sys.StubNodes()
	qs := make([]sbon.Query, n)
	for i := range qs {
		qs[i] = sbon.Query{
			ID:       sbon.QueryID(i + 1),
			Consumer: stubs[(i*7)%32],
			Streams:  sets[i%len(sets)],
		}
	}
	return qs
}

// TestShardedBatchEquivalence is the facade-level shard-vs-global check:
// identical circuits and usage from OptimizeBatchSharded and
// OptimizeBatch on the same System.
func TestShardedBatchEquivalence(t *testing.T) {
	sys := shardScaleSystem(t)
	qs := shardScaleWorkload(sys, 200)
	want, err := sys.OptimizeBatch(qs, sbon.BatchOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := sys.OptimizeBatchSharded(qs, sbon.ShardedBatchOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 8 {
		t.Fatalf("stats.Shards = %d", stats.Shards)
	}
	for i := range qs {
		if got[i].EstimatedUsage != want[i].EstimatedUsage {
			t.Fatalf("query %d: estimated usage %v (sharded) vs %v (global)", i, got[i].EstimatedUsage, want[i].EstimatedUsage)
		}
		for s := range got[i].Circuit.Services {
			if got[i].Circuit.Services[s].Node != want[i].Circuit.Services[s].Node {
				t.Fatalf("query %d service %d: node %d (sharded) vs %d (global)",
					i, s, got[i].Circuit.Services[s].Node, want[i].Circuit.Services[s].Node)
			}
		}
	}
}
