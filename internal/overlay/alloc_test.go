package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

// Allocation ceilings and ownership guards of the virtual data path: a
// delivery is one recycled record, a heartbeat one re-armed event. Each
// test runs on one lane and on 4, where records move between the lanes'
// free lists (run these under -race).

// laneNet builds a started 240-node virtual-clock network on `shards`
// lanes (1: the single queue) with the test goroutine driving it.
func laneNet(t *testing.T, shards int) (*Network, *simtime.VirtualClock) {
	t.Helper()
	topoCfg := topology.DefaultConfig()
	topoCfg.StubsPerTransit = 2
	topoCfg.StubNodes = 7
	topo, err := topology.Generate(topoCfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	clk := simtime.NewVirtual()
	cfg := Config{Clock: clk}
	if shards > 1 {
		laneOf := make([]int32, topo.NumNodes())
		for i := range laneOf {
			laneOf[i] = int32(i % shards) // no locality: most sends cross lanes
		}
		clk.ShardLanes(laneOf, shards, time.Duration(topo.MinEdgeLatency()*float64(time.Millisecond)))
		cfg.DataShards, cfg.ShardOf = shards, laneOf
	}
	net := NewNetwork(topo, cfg)
	t.Cleanup(func() {
		net.Stop()
		clk.Stop()
	})
	return net, clk
}

// allocsPerMessage sleeps through `window` of virtual time a few times
// and returns the heap allocations per message counted by `counter`,
// with the messages one window carries. The Sleep itself allocates
// nothing.
func allocsPerMessage(t *testing.T, net *Network, clk *simtime.VirtualClock, counter string, window time.Duration) float64 {
	t.Helper()
	c := net.Metrics.Counter(counter)
	clk.Sleep(window) // warm up: free lists, ready heaps, outboxes at working size
	before := c.Value()
	const runs = 4
	perRun := testing.AllocsPerRun(runs, func() { clk.Sleep(window) })
	msgs := (c.Value() - before) / (runs + 1) // AllocsPerRun adds a warm-up call
	if msgs < 10_000 {
		t.Fatalf("window carried %v %s, want at least 10k", msgs, counter)
	}
	t.Logf("%.0f allocations over %.0f %s per window", perRun, msgs, counter)
	return perRun / msgs
}

func forEachLaneCount(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("lanes=%d", shards), func(t *testing.T) { fn(t, shards) })
	}
}

// TestSendDeliverAllocCeiling keeps 64 messages circulating — every
// handler forwards what it receives — and requires a send + delivery
// with a nil payload to allocate nothing.
func TestSendDeliverAllocCeiling(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, shards int) {
		net, clk := laneNet(t, shards)
		n := net.NumNodes()
		for i := 0; i < n; i++ {
			nd := net.Node(topology.NodeID(i))
			next := topology.NodeID((i*7 + 3) % n)
			nd.Register("fwd", func(Message) { _ = nd.Send(next, "fwd", 1, nil) })
		}
		for i := 0; i < 64; i++ {
			if err := net.Node(topology.NodeID(i)).Send(topology.NodeID((i+1)%n), "fwd", 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := allocsPerMessage(t, net, clk, "msgs.sent", 20*time.Second); got > 0.01 {
			t.Fatalf("%.3f allocations per message, want <= 0.01", got)
		}
	})
}

// TestHeartbeatRoundAllocCeiling: a beat is a Send from a re-armed
// event; with no observer installed a round allocates nothing.
func TestHeartbeatRoundAllocCeiling(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, shards int) {
		net, clk := laneNet(t, shards)
		hb := net.StartHeartbeats(10*time.Millisecond, 0.05)
		defer hb.Stop()
		if got := allocsPerMessage(t, net, clk, "hb.recv", 500*time.Millisecond); got > 0.01 {
			t.Fatalf("%.3f allocations per heartbeat, want <= 0.01", got)
		}
	})
}

// TestDeliveryRecordsAreNotAliased: a handler keeps every Message it
// saw; ten times as many later sends, which recycle the same delivery
// records, must leave every kept Message as it was delivered.
func TestDeliveryRecordsAreNotAliased(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, shards int) {
		net, clk := laneNet(t, shards)
		n := net.NumNodes()
		keptBy := make([][]Message, n) // a node's handlers run serially in its lane
		for i := 0; i < n; i++ {
			i := i
			nd := net.Node(topology.NodeID(i))
			nd.Register("keep", func(m Message) { keptBy[i] = append(keptBy[i], m) })
			nd.Register("sink", func(Message) {})
		}
		send := func(k int, port string) {
			payload := k
			if err := net.Node(topology.NodeID(k%n)).Send(topology.NodeID((k*11+5)%n), port, float64(k)+0.5, &payload); err != nil {
				t.Fatal(err)
			}
		}
		const kept = 300
		for k := 0; k < kept; k++ {
			send(k, "keep")
		}
		clk.Sleep(time.Second)
		asDelivered := make([][]Message, n)
		total := 0
		for i, msgs := range keptBy {
			asDelivered[i] = append([]Message(nil), msgs...)
			total += len(msgs)
		}
		if total != kept {
			t.Fatalf("handlers kept %d messages, want %d", total, kept)
		}
		for k := kept; k < 11*kept; k++ {
			send(k, "sink")
			if k%kept == 0 {
				clk.Sleep(time.Second) // records return to the free lists and fly again
			}
		}
		clk.Sleep(time.Second)
		for i, msgs := range keptBy {
			if len(msgs) != len(asDelivered[i]) {
				t.Fatalf("node %d kept %d messages, then %d", i, len(asDelivered[i]), len(msgs))
			}
			for j, m := range msgs {
				if m != asDelivered[i][j] {
					t.Fatalf("node %d message %d changed under later sends:\n  was %+v\n  now %+v", i, j, asDelivered[i][j], m)
				}
			}
		}
	})
}
