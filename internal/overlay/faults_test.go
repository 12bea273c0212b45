package overlay

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/topology"
)

func TestFaultDropProbabilityIsDeterministic(t *testing.T) {
	run := func() (delivered, dropped float64) {
		net, clk := virtualNet(t)
		net.InstallFaults(FaultPlan{Seed: 7, DropProb: 0.3})
		var got int
		net.Node(1).Register("d", func(Message) { got++ })
		for i := 0; i < 500; i++ {
			if err := net.Node(0).Send(1, "d", 1, i); err != nil {
				t.Fatal(err)
			}
		}
		settle(clk)
		return float64(got), net.Metrics.Counter("faults.dropped").Value()
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: delivered %v vs %v, dropped %v vs %v", d1, d2, x1, x2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("expected partial loss: delivered %v, dropped %v", d1, x1)
	}
	if d1+x1 != 500 {
		t.Fatalf("delivered %v + dropped %v != 500", d1, x1)
	}
	// 30% of 500 with a fixed seed should land well inside [100, 200].
	if x1 < 100 || x1 > 200 {
		t.Fatalf("dropped %v, want ≈150", x1)
	}
}

func TestLinkCutDropsOnlyThatLink(t *testing.T) {
	net, clk := virtualNet(t)
	net.InstallFaults(FaultPlan{Seed: 1, Links: []LinkFault{{From: 0, To: 1, DropProb: 1}}})
	var on1, on2 int
	net.Node(1).Register("d", func(Message) { on1++ })
	net.Node(2).Register("d", func(Message) { on2++ })
	for i := 0; i < 5; i++ {
		net.Node(0).Send(1, "d", 1, nil)
		net.Node(0).Send(2, "d", 1, nil)
		net.Node(1).Send(2, "d", 1, nil)
	}
	settle(clk)
	if on1 != 0 {
		t.Fatalf("cut link 0->1 delivered %d messages", on1)
	}
	if on2 != 10 {
		t.Fatalf("unaffected routes delivered %d messages, want 10", on2)
	}
	if got := net.Metrics.Counter("faults.dropped").Value(); got != 5 {
		t.Fatalf("faults.dropped = %v, want 5", got)
	}
}

func TestLinkCutWindowExpires(t *testing.T) {
	net, clk := virtualNet(t)
	net.InstallFaults(FaultPlan{Seed: 1, Links: []LinkFault{
		{From: 0, To: 1, DropProb: 1, At: 0, Until: 500 * time.Millisecond},
	}})
	var got int
	net.Node(1).Register("d", func(Message) { got++ })
	net.Node(0).Send(1, "d", 1, nil) // inside the window: dropped
	clk.Sleep(time.Second)           // window over
	net.Node(0).Send(1, "d", 1, nil) // delivered
	settle(clk)
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (cut window should have expired)", got)
	}
}

func TestPartitionCutsCrossTraffic(t *testing.T) {
	net, clk := virtualNet(t)
	net.InstallFaults(FaultPlan{Seed: 1, Partitions: []PartitionFault{
		{Group: []topology.NodeID{0, 1}},
	}})
	var intra, cross int
	net.Node(1).Register("d", func(Message) { intra++ })
	net.Node(2).Register("d", func(Message) { cross++ })
	net.Node(0).Send(1, "d", 1, nil) // same side: delivered
	net.Node(0).Send(2, "d", 1, nil) // crosses: cut
	net.Node(3).Send(2, "d", 1, nil) // both outside: delivered
	settle(clk)
	if intra != 1 || cross != 1 {
		t.Fatalf("intra=%d cross=%d, want 1/1", intra, cross)
	}
}

func TestJitterDelaysButDelivers(t *testing.T) {
	net, clk := virtualNet(t)
	base := time.Duration(net.topo.Latency(0, 1) * float64(time.Millisecond))
	net.InstallFaults(FaultPlan{Seed: 3, JitterMs: 40})
	var arrived time.Time
	var sent time.Time
	net.Node(1).Register("d", func(m Message) { arrived, sent = clk.Now(), m.SentAt })
	net.Node(0).Send(1, "d", 1, nil)
	settle(clk)
	if arrived.IsZero() {
		t.Fatal("jittered message not delivered")
	}
	lat := arrived.Sub(sent)
	if lat < base || lat > base+40*time.Millisecond {
		t.Fatalf("jittered latency %v outside [%v, %v]", lat, base, base+40*time.Millisecond)
	}
	if lat == base {
		t.Fatalf("jitter added nothing (latency exactly %v)", base)
	}
}

func TestScheduledCrashAndRecovery(t *testing.T) {
	net, clk := virtualNet(t)
	start := clk.Now()
	fi := net.InstallFaults(FaultPlan{Seed: 1, Crashes: []NodeCrash{
		{Node: 2, At: 100 * time.Millisecond, RecoverAt: 400 * time.Millisecond},
	}})
	if net.NodeDown(2) {
		t.Fatal("node 2 down before the scheduled crash")
	}
	clk.Sleep(200 * time.Millisecond)
	if !net.NodeDown(2) {
		t.Fatal("node 2 alive after the scheduled crash")
	}
	if at, ok := fi.CrashTime(2); !ok || at.Sub(start) != 100*time.Millisecond {
		t.Fatalf("CrashTime = %v ok=%v, want +100ms", at, ok)
	}
	if got := fi.CrashedNodes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("CrashedNodes = %v", got)
	}
	clk.Sleep(300 * time.Millisecond)
	if net.NodeDown(2) {
		t.Fatal("node 2 still down after scheduled recovery")
	}
	if got := net.Metrics.Counter("faults.crashes").Value(); got != 1 {
		t.Fatalf("faults.crashes = %v", got)
	}
	if got := net.Metrics.Counter("faults.recoveries").Value(); got != 1 {
		t.Fatalf("faults.recoveries = %v", got)
	}
}

func TestHeartbeatObserverSeesBeats(t *testing.T) {
	net, clk := virtualNet(t)
	var seen []topology.NodeID
	net.ObserveHeartbeats(func(from, _ topology.NodeID, _ time.Time) { seen = append(seen, from) })
	hb := net.StartHeartbeats(100*time.Millisecond, 0.1)
	defer hb.Stop()
	clk.Sleep(150 * time.Millisecond) // one full round
	if len(seen) != net.topo.NumNodes() {
		t.Fatalf("observer saw %d beats, want %d", len(seen), net.topo.NumNodes())
	}
	net.ObserveHeartbeats(nil)
	clk.Sleep(100 * time.Millisecond)
	if len(seen) != net.topo.NumNodes() {
		t.Fatalf("observer still called after removal: %d beats", len(seen))
	}
}

// TestNoPostMortemHeartbeat is the regression test for the
// Heartbeats.Stop / SetNodeDown interleaving: a node killed while its
// heartbeat is in flight must not deliver that beat post-mortem. Node
// 0's beat to node 1 takes a nonzero latency; we kill node 0 inside
// that window and assert node 1's observer never hears from it.
func TestNoPostMortemHeartbeat(t *testing.T) {
	net, clk := virtualNet(t)
	var fromDead int
	net.ObserveHeartbeats(func(from, _ topology.NodeID, _ time.Time) {
		if from == 0 {
			fromDead++
		}
	})
	hb := net.StartHeartbeats(100*time.Millisecond, 0.1)
	defer hb.Stop()

	lat := time.Duration(net.topo.Latency(0, 1) * float64(time.Millisecond))
	if lat <= 0 {
		t.Fatal("test topology needs nonzero 0->1 latency")
	}
	// Beats fire at t=100ms; at that instant node 0's beat to node 1 is
	// in flight. Kill node 0 halfway through the flight.
	clk.Sleep(100*time.Millisecond + lat/2)
	net.SetNodeDown(0, true)
	clk.Sleep(time.Second)
	if fromDead != 0 {
		t.Fatalf("dead node 0 delivered %d post-mortem heartbeats", fromDead)
	}
	if got := net.Metrics.Counter("hb.postmortem_dropped").Value(); got != 1 {
		t.Fatalf("hb.postmortem_dropped = %v, want 1", got)
	}
}

func TestFaultPlanSameSeedBitIdentical(t *testing.T) {
	run := func() (string, float64, float64) {
		net, clk := virtualNet(t)
		net.InstallFaults(FaultPlan{
			Seed:     99,
			DropProb: 0.1,
			JitterMs: 5,
			Crashes:  []NodeCrash{{Node: 4, At: 300 * time.Millisecond}},
		})
		hb := net.StartHeartbeats(50*time.Millisecond, 0.1)
		defer hb.Stop()
		var log string
		net.Node(2).Register("d", func(m Message) {
			log += m.Payload.(string)
		})
		for i := 0; i < 20; i++ {
			net.Node(0).Send(2, "d", 1, string(rune('a'+i)))
			clk.Sleep(37 * time.Millisecond)
		}
		settle(clk)
		return log,
			net.Metrics.Counter("faults.dropped").Value() + net.Metrics.Counter("faults.hb_dropped").Value(),
			net.Metrics.Counter("usage.kbms").Value()
	}
	l1, d1, u1 := run()
	l2, d2, u2 := run()
	if l1 != l2 || d1 != d2 || u1 != u2 {
		t.Fatalf("same-seed fault runs diverged: %q/%v/%v vs %q/%v/%v", l1, d1, u1, l2, d2, u2)
	}
}
