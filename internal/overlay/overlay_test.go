package overlay

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

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

// virtualNet builds a network on a fresh clock: sleeping on the
// returned clock advances simulated time instantly and
// deterministically.
func virtualNet(t *testing.T) (*Network, *simtime.VirtualClock) {
	t.Helper()
	cfg := Config{Clock: simtime.NewVirtual()}
	clk := cfg.Clock
	net := NewNetwork(lineTopo(t), cfg)
	t.Cleanup(func() {
		net.Stop()
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
	want := time.Duration(worst * float64(time.Millisecond))
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

// TestPortTable: the copy-on-write table keeps one entry per port — a
// second Register replaces the first — Unregister of a port the node
// never had changes nothing, the last Unregister leaves no table, and a
// message for an unknown port on a node that has others still counts
// msgs.unrouted.
func TestPortTable(t *testing.T) {
	net, clk := virtualNet(t)
	nd := net.Node(1)
	entries := func() int {
		if tab := nd.ports.Load(); tab != nil {
			return len(*tab)
		}
		return 0
	}
	var first, second, other int
	nd.Register("p", func(Message) { first++ })
	nd.Register("q", func(Message) { other++ })
	nd.Register("p", func(Message) { second++ })
	if got := entries(); got != 2 {
		t.Fatalf("%d table entries after registering p, q, p; want 2", got)
	}
	before := nd.ports.Load()
	nd.Unregister("never-registered")
	if nd.ports.Load() != before {
		t.Fatal("Unregister of an unknown port published a new table")
	}
	for _, port := range []string{"p", "q", "nobody-home"} {
		if err := net.Node(0).Send(1, port, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	settle(clk)
	if first != 0 || second != 1 || other != 1 {
		t.Fatalf("deliveries: replaced handler %d, replacing handler %d, q %d; want 0, 1, 1", first, second, other)
	}
	if got := net.Metrics.Counter("msgs.unrouted").Value(); got != 1 {
		t.Fatalf("msgs.unrouted = %v, want 1", got)
	}
	if len(*before) != 2 {
		t.Fatalf("a published table was written to: %d entries", len(*before))
	}
	nd.Unregister("p")
	nd.Unregister("q")
	if nd.ports.Load() != nil {
		t.Fatal("a node without ports still holds a table")
	}
}

// TestRegisterDuringDelivery: a control goroutine binds and unbinds
// side ports on every node while the nodes' handlers are delivering —
// on lane workers too — and no message goes astray. Run under -race:
// dispatch reads the table without a lock.
func TestRegisterDuringDelivery(t *testing.T) {
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
		started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() { // never sleeps on the clock: it only touches port tables
			defer close(done)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if k == n {
					close(started)
				}
				nd := net.Node(topology.NodeID(k % n))
				nd.Register("side", func(Message) {})
				nd.Register("fwd2", func(Message) {})
				nd.Unregister("side")
				nd.Unregister("fwd2")
			}
		}()
		sent := net.Metrics.Counter("msgs.sent")
		before := sent.Value()
		<-started
		clk.Sleep(20 * time.Second)
		close(stop)
		<-done
		if got := sent.Value() - before; got < 10_000 {
			t.Fatalf("only %v messages forwarded while ports churned", got)
		}
		if got := net.Metrics.Counter("msgs.unrouted").Value(); got != 0 {
			t.Fatalf("%v messages found no handler while unrelated ports churned", got)
		}
		for i := 0; i < n; i++ {
			if tab := net.Node(topology.NodeID(i)).ports.Load(); tab == nil || len(*tab) != 1 {
				t.Fatalf("node %d does not end with exactly its fwd port", i)
			}
		}
	})
}

// TestMessageFitsAClosureCapture pins the size of Message. Go captures a
// closure variable by value only when it is never reassigned and at most
// 128 bytes; a handler that captures its Message in a closure — a
// deferred observation, a forwarder — would otherwise move every message
// it receives to the heap at handler entry, whether or not the closure
// is ever built. Datum's Side and Stream are int32 for this reason: as
// ints the Message is 136 bytes.
func TestMessageFitsAClosureCapture(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > 128 {
		t.Fatalf("Message is %d bytes, want <= 128", got)
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
// and TimeScale and InboxSize (kept for the frozen bench) change
// nothing — a clock millisecond is a simulated one.
func TestSimMillis(t *testing.T) {
	net := NewNetwork(lineTopo(t), Config{TimeScale: 100 * time.Microsecond, InboxSize: 1})
	defer net.Clock().Stop()
	if got := net.SimMillis(time.Millisecond); got != 1 {
		t.Fatalf("SimMillis(1ms) = %v, want 1", got)
	}
	sent, arrived := time.Time{}, time.Time{}
	net.Node(1).Register("lat", func(m Message) { sent, arrived = m.SentAt, net.Clock().Now() })
	if err := net.Node(0).Send(1, "lat", 1, nil); err != nil {
		t.Fatal(err)
	}
	settle(net.Clock())
	if want := time.Duration(net.topo.Latency(0, 1) * float64(time.Millisecond)); arrived.Sub(sent) != want {
		t.Fatalf("delivery took %v, want the latency at 1 clock ms per ms, %v", arrived.Sub(sent), want)
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
