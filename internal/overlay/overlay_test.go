package overlay

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

func lineTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubsPerTransit:     1,
		StubNodes:           3,
		IntraStubLatency:    [2]float64{1, 2},
		StubUplinkLatency:   [2]float64{2, 4},
		IntraTransitLatency: [2]float64{5, 10},
	}
	return topology.MustGenerate(cfg, rand.New(rand.NewSource(1)))
}

// virtualNet builds a network on a fresh clock with the test
// goroutine registered as the driving actor: sleeping on the returned
// clock advances simulated time instantly and deterministically.
func virtualNet(t *testing.T) (*Network, *simtime.VirtualClock) {
	t.Helper()
	cfg := DefaultConfig()
	clk := cfg.Clock
	clk.Register()
	net := NewNetwork(lineTopo(t), cfg)
	t.Cleanup(func() {
		net.Stop()
		clk.Unregister()
		clk.Stop()
	})
	return net, clk
}

// settle sleeps past every latency in the (small) test topology so all
// in-flight deliveries have dispatched.
func settle(clk *simtime.VirtualClock) { clk.Sleep(time.Second) }

func TestSendDeliversToHandler(t *testing.T) {
	net, clk := virtualNet(t)

	var got []Message
	net.Node(1).Register("test", func(m Message) { got = append(got, m) })
	if err := net.Node(0).Send(1, "test", 2.5, "hello"); err != nil {
		t.Fatal(err)
	}
	settle(clk)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	m := got[0]
	if m.From != 0 || m.To != 1 || m.Payload.(string) != "hello" || m.SizeKB != 2.5 {
		t.Fatalf("message = %+v", m)
	}
}

func TestVirtualDeliveryAtExactLatency(t *testing.T) {
	net, clk := virtualNet(t)
	topo := net.topo

	// Farthest pair gives the largest delay to verify.
	var a, b topology.NodeID
	worst := 0.0
	for i := 0; i < topo.NumNodes(); i++ {
		for j := 0; j < topo.NumNodes(); j++ {
			if l := topo.Latency(topology.NodeID(i), topology.NodeID(j)); l > worst {
				worst, a, b = l, topology.NodeID(i), topology.NodeID(j)
			}
		}
	}
	var arrived time.Time
	var sent time.Time
	net.Node(b).Register("lat", func(m Message) {
		arrived = clk.Now()
		sent = m.SentAt
	})
	if err := net.Node(a).Send(b, "lat", 1, nil); err != nil {
		t.Fatal(err)
	}
	settle(clk)
	if arrived.IsZero() {
		t.Fatal("message not delivered")
	}
	want := time.Duration(worst * float64(net.Config().TimeScale))
	if got := arrived.Sub(sent); got != want {
		t.Fatalf("virtual delivery took %v, want exactly %v (latency %.1f ms)", got, want, worst)
	}
}

func TestSendToSelf(t *testing.T) {
	net, clk := virtualNet(t)
	delivered := 0
	net.Node(3).Register("self", func(Message) { delivered++ })
	if err := net.Node(3).Send(3, "self", 1, nil); err != nil {
		t.Fatal(err)
	}
	settle(clk)
	if delivered != 1 {
		t.Fatalf("self message delivered %d times", delivered)
	}
}

func TestSendInvalidDestination(t *testing.T) {
	net, _ := virtualNet(t)
	if err := net.Node(0).Send(99, "x", 1, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestUnroutedMessageCounted(t *testing.T) {
	net, clk := virtualNet(t)
	if err := net.Node(0).Send(1, "nobody-home", 1, nil); err != nil {
		t.Fatal(err)
	}
	settle(clk)
	if got := net.Metrics.Counter("msgs.unrouted").Value(); got != 1 {
		t.Fatalf("msgs.unrouted = %v, want 1", got)
	}
}

func TestMetricsAccounting(t *testing.T) {
	net, clk := virtualNet(t)
	topo := net.topo
	delivered := 0
	net.Node(2).Register("m", func(Message) { delivered++ })
	const sends = 5
	for i := 0; i < sends; i++ {
		if err := net.Node(0).Send(2, "m", 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	settle(clk)
	if delivered != sends {
		t.Fatalf("delivered %d, want %d", delivered, sends)
	}
	if got := net.Metrics.Counter("msgs.sent").Value(); got != sends {
		t.Fatalf("msgs.sent = %v, want %v", got, sends)
	}
	if got := net.Metrics.Counter("kb.sent").Value(); got != 2*sends {
		t.Fatalf("kb.sent = %v, want %v", got, 2*sends)
	}
	wantUsage := 2.0 * sends * topo.Latency(0, 2)
	if got := net.Metrics.Counter("usage.kbms").Value(); got != wantUsage {
		t.Fatalf("usage.kbms = %v, want %v", got, wantUsage)
	}
}

func TestVirtualSendOrderIsFIFO(t *testing.T) {
	net, clk := virtualNet(t)
	var order []int
	net.Node(1).Register("fifo", func(m Message) { order = append(order, m.Payload.(int)) })
	// Same source, same destination, same latency: arrival order must be
	// send order.
	for i := 0; i < 20; i++ {
		if err := net.Node(0).Send(1, "fifo", 1, i); err != nil {
			t.Fatal(err)
		}
	}
	settle(clk)
	if len(order) != 20 {
		t.Fatalf("delivered %d/20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v not FIFO", order)
		}
	}
}

func TestVirtualStopDropsPending(t *testing.T) {
	net, clk := virtualNet(t)
	delivered := 0
	net.Node(1).Register("x", func(Message) { delivered++ })
	for i := 0; i < 10; i++ {
		if err := net.Node(0).Send(1, "x", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	net.Stop() // before any latency elapses
	net.Stop() // idempotent
	settle(clk)
	if delivered != 0 {
		t.Fatalf("%d messages delivered after Stop", delivered)
	}
	if got := net.Metrics.Counter("msgs.dropped").Value(); got != 10 {
		t.Fatalf("msgs.dropped = %v, want 10", got)
	}
}

func TestRegisterUnregister(t *testing.T) {
	net, clk := virtualNet(t)
	delivered := 0
	net.Node(1).Register("p", func(Message) { delivered++ })
	_ = net.Node(0).Send(1, "p", 1, nil)
	settle(clk)
	if delivered != 1 {
		t.Fatal("first message lost")
	}
	net.Node(1).Unregister("p")
	_ = net.Node(0).Send(1, "p", 1, nil)
	settle(clk)
	if delivered != 1 {
		t.Fatal("message delivered after Unregister")
	}
	if got := net.Metrics.Counter("msgs.unrouted").Value(); got != 1 {
		t.Fatalf("msgs.unrouted = %v, want 1", got)
	}
}

func TestHeartbeats(t *testing.T) {
	net, clk := virtualNet(t)
	hb := net.StartHeartbeats(100*time.Millisecond, 0.01)
	clk.Sleep(1050 * time.Millisecond) // 10 full intervals
	hb.Stop()
	hb.Stop() // idempotent
	sent := net.Metrics.Counter("hb.sent").Value()
	nodes := float64(net.topo.NumNodes())
	if want := 10 * nodes; sent != want {
		t.Fatalf("hb.sent = %v, want %v (10 rounds × %v nodes)", sent, want, nodes)
	}
	// All beats eventually arrive (latency ≤ settle window).
	settle(clk)
	if recv := net.Metrics.Counter("hb.recv").Value(); recv != sent {
		t.Fatalf("hb.recv = %v, want %v", recv, sent)
	}
	// No further beats after Stop.
	clk.Sleep(time.Second)
	if got := net.Metrics.Counter("hb.sent").Value(); got != sent {
		t.Fatalf("heartbeats continued after Stop: %v -> %v", sent, got)
	}
}

// TestSimMillis also pins what NewNetwork does with the fields a caller
// may leave out or set in vain: a nil Clock means a fresh virtual clock,
// and InboxSize (kept for the frozen bench) changes nothing.
func TestSimMillis(t *testing.T) {
	net := NewNetwork(lineTopo(t), Config{TimeScale: 100 * time.Microsecond, InboxSize: 1})
	defer net.Clock().Drive()()
	if got := net.SimMillis(time.Millisecond); got != 10 {
		t.Fatalf("SimMillis(1ms) = %v, want 10", got)
	}
	delivered := 0
	net.Node(1).Register("x", func(Message) { delivered++ })
	for i := 0; i < 3; i++ { // more in flight than an inbox of one would hold
		if err := net.Node(0).Send(1, "x", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	settle(net.Clock())
	if delivered != 3 {
		t.Fatalf("delivered %d of 3 on the network's own clock", delivered)
	}
}

func TestDownNodeDropsDeliveriesAndRefusesSends(t *testing.T) {
	net, clk := virtualNet(t)
	var got int
	net.Node(1).Register("x", func(Message) { got++ })

	net.SetNodeDown(1, true)
	if !net.NodeDown(1) {
		t.Fatal("NodeDown did not report down")
	}
	if err := net.Node(0).Send(1, "x", 1, nil); err != nil {
		t.Fatalf("send to a down node must still be accepted by the sender: %v", err)
	}
	settle(clk)
	if got != 0 {
		t.Fatal("down node dispatched a delivery")
	}
	if d := net.Metrics.Counter("msgs.down_dropped").Value(); d != 1 {
		t.Fatalf("msgs.down_dropped = %v, want 1", d)
	}

	if err := net.Node(1).Send(0, "x", 1, nil); err == nil {
		t.Fatal("send from a down node succeeded")
	}
	if r := net.Metrics.Counter("msgs.down_refused").Value(); r != 1 {
		t.Fatalf("msgs.down_refused = %v, want 1", r)
	}

	// Re-join: deliveries flow again and no further drops accrue.
	net.SetNodeDown(1, false)
	if err := net.Node(0).Send(1, "x", 1, nil); err != nil {
		t.Fatal(err)
	}
	settle(clk)
	if got != 1 {
		t.Fatalf("re-joined node received %d messages, want 1", got)
	}
	if d := net.Metrics.Counter("msgs.down_dropped").Value(); d != 1 {
		t.Fatalf("msgs.down_dropped moved to %v after rejoin", d)
	}
}

func TestDownNodeHeartbeatAccounting(t *testing.T) {
	net, clk := virtualNet(t)
	net.SetNodeDown(2, true)
	hb := net.StartHeartbeats(100*time.Millisecond, 0.05)
	clk.Sleep(time.Second)
	hb.Stop()
	if d := net.Metrics.Counter("hb.down_dropped").Value(); d == 0 {
		t.Fatal("pings to the down node were not counted as hb.down_dropped")
	}
	if d := net.Metrics.Counter("msgs.down_dropped").Value(); d != 0 {
		t.Fatalf("heartbeat drops leaked into msgs.down_dropped (%v)", d)
	}
	// The down node's own pings are refused, not sent.
	if r := net.Metrics.Counter("msgs.down_refused").Value(); r == 0 {
		t.Fatal("down node's outgoing pings were not refused")
	}
}
