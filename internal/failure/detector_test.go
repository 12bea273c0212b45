package failure

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubsPerTransit:     2,
		StubNodes:           3,
		IntraStubLatency:    [2]float64{1, 2},
		StubUplinkLatency:   [2]float64{2, 4},
		IntraTransitLatency: [2]float64{5, 10},
	}
	return topology.MustGenerate(cfg, rand.New(rand.NewSource(1)))
}

func virtualNet(t *testing.T) (*overlay.Network, *simtime.VirtualClock) {
	t.Helper()
	cfg := overlay.Config{Clock: simtime.NewVirtual()}
	clk := cfg.Clock
	net := overlay.NewNetwork(testTopo(t), cfg)
	t.Cleanup(func() {
		net.Stop()
		clk.Stop()
	})
	return net, clk
}

const beat = 100 * time.Millisecond

func startDetector(t *testing.T, net *overlay.Network) *Detector {
	t.Helper()
	hb := net.StartHeartbeatsOpts(beat, 0.05, overlay.HeartbeatOpts{SkipDownTargets: true})
	d := New(net, DefaultConfig(beat))
	t.Cleanup(func() { d.Stop(); hb.Stop() })
	return d
}

func TestAllAliveNoEvents(t *testing.T) {
	net, clk := virtualNet(t)
	d := startDetector(t, net)
	clk.Sleep(2 * time.Second)
	if ev := d.TakeEvents(); len(ev) != 0 {
		t.Fatalf("healthy overlay emitted events: %+v", ev)
	}
	for i := 0; i < net.NumNodes(); i++ {
		if s := d.State(topology.NodeID(i)); s != Alive {
			t.Fatalf("node %d state %v, want alive", i, s)
		}
	}
}

func TestCrashDetectedSuspectThenDead(t *testing.T) {
	net, clk := virtualNet(t)
	d := startDetector(t, net)
	clk.Sleep(time.Second) // settle into a steady beat
	d.TakeEvents()

	crashAt := clk.Now()
	net.SetNodeDown(3, true)
	clk.Sleep(time.Second)

	ev := d.TakeEvents()
	var kinds []Kind
	for _, e := range ev {
		if e.Node != 3 {
			t.Fatalf("event for unexpected node: %+v", e)
		}
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 2 || kinds[0] != Suspected || kinds[1] != Died {
		t.Fatalf("event kinds = %v, want [suspect dead]", kinds)
	}
	if d.State(3) != Dead {
		t.Fatalf("state = %v, want dead", d.State(3))
	}
	if got := d.DeadNodes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("DeadNodes = %v", got)
	}
	// Detection latency is bounded by (DeadMissed+1) intervals + one
	// check period.
	latency := ev[1].At.Sub(crashAt)
	bound := time.Duration(DefaultConfig(beat).DeadMissed+2) * beat
	if latency <= 0 || latency > bound {
		t.Fatalf("detection latency %v outside (0, %v]", latency, bound)
	}
}

func TestRecoveryEmitsRecovered(t *testing.T) {
	net, clk := virtualNet(t)
	d := startDetector(t, net)
	clk.Sleep(time.Second)
	net.SetNodeDown(2, true)
	clk.Sleep(time.Second)
	if d.State(2) != Dead {
		t.Fatalf("state = %v, want dead before rejoin", d.State(2))
	}
	d.TakeEvents()
	net.SetNodeDown(2, false)
	clk.Sleep(time.Second)
	ev := d.TakeEvents()
	if len(ev) != 1 || ev[0].Node != 2 || ev[0].Kind != Recovered {
		t.Fatalf("events after rejoin = %+v, want one recovered(2)", ev)
	}
	if d.State(2) != Alive {
		t.Fatalf("state = %v, want alive", d.State(2))
	}
	st := d.Snapshot()
	if st.Deaths != 1 || st.Recoveries != 1 || st.Suspects != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdjacentCrashNoFalsePositive: node 3's beats target node 4; with
// SkipDownTargets the beats re-route when 4 dies, so 3 must stay
// Alive.
func TestAdjacentCrashNoFalsePositive(t *testing.T) {
	net, clk := virtualNet(t)
	d := startDetector(t, net)
	clk.Sleep(time.Second)
	net.SetNodeDown(4, true)
	clk.Sleep(2 * time.Second)
	if d.State(4) != Dead {
		t.Fatalf("crashed node state = %v, want dead", d.State(4))
	}
	if d.State(3) != Alive {
		t.Fatalf("predecessor of the crashed node condemned: state = %v", d.State(3))
	}
	for _, e := range d.TakeEvents() {
		if e.Node != 4 {
			t.Fatalf("event for a live node: %+v", e)
		}
	}
}

// TestDetectorRidesThroughLoss: 5% ambient heartbeat loss must not
// produce false Dead verdicts at the default thresholds.
func TestDetectorRidesThroughLoss(t *testing.T) {
	net, clk := virtualNet(t)
	net.InstallFaults(overlay.FaultPlan{Seed: 5, DropProb: 0.05})
	d := startDetector(t, net)
	clk.Sleep(20 * time.Second) // ~200 rounds × 10 nodes
	for _, e := range d.TakeEvents() {
		if e.Kind == Died {
			t.Fatalf("ambient 5%% loss produced a false death: %+v", e)
		}
	}
}

func TestEventStreamDeterministic(t *testing.T) {
	run := func() string {
		net, clk := virtualNet(t)
		net.InstallFaults(overlay.FaultPlan{
			Seed:     11,
			DropProb: 0.02,
			Crashes: []overlay.NodeCrash{
				{Node: 1, At: 700 * time.Millisecond},
				{Node: 5, At: 900 * time.Millisecond, RecoverAt: 3 * time.Second},
			},
		})
		hb := net.StartHeartbeatsOpts(beat, 0.05, overlay.HeartbeatOpts{SkipDownTargets: true})
		defer hb.Stop()
		d := New(net, DefaultConfig(beat))
		defer d.Stop()
		clk.Sleep(6 * time.Second)
		var s string
		for _, e := range d.TakeEvents() {
			s += fmt.Sprintf("%d:%v:%v;", e.Node, e.Kind, e.At.UnixNano())
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed detector runs diverged:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("scenario produced no events")
	}
}

// TestObservedHeartbeatAllocCeiling: with a Detector installed every
// delivered heartbeat is observed — staged as a record of the observer
// and the two node ids, not as a closure — so full-population liveness
// traffic allocates nothing per beat, on the single queue and on 4
// lanes. What is left is the detector's check event, one per interval
// (240 beats).
func TestObservedHeartbeatAllocCeiling(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", shards), func(t *testing.T) {
			topoCfg := topology.DefaultConfig()
			topoCfg.StubsPerTransit = 2
			topoCfg.StubNodes = 7
			topo, err := topology.Generate(topoCfg, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := overlay.Config{Clock: simtime.NewVirtual()}
			clk := cfg.Clock
			if shards > 1 {
				laneOf := make([]int32, topo.NumNodes())
				for i := range laneOf {
					laneOf[i] = int32(i % shards) // no locality: a beat to the next id crosses lanes
				}
				clk.ShardLanes(laneOf, shards, time.Duration(topo.MinEdgeLatency()*float64(time.Millisecond)))
				cfg.DataShards, cfg.ShardOf = shards, laneOf
			}
			defer clk.Stop()
			net := overlay.NewNetwork(topo, cfg)
			defer net.Stop()
			hb := net.StartHeartbeatsOpts(beat, 0.05, overlay.HeartbeatOpts{SkipDownTargets: true})
			defer hb.Stop()
			d := New(net, DefaultConfig(beat))
			defer d.Stop()

			recv := net.Metrics.Counter("hb.recv")
			const window = 50 * beat
			clk.Sleep(window) // warm up: free lists, ready heaps, outboxes, staging slices at working size
			d.TakeEvents()    // beats slower than two intervals are suspected once, at start-up
			before := recv.Value()
			const runs = 4
			perRun := testing.AllocsPerRun(runs, func() { clk.Sleep(window) })
			beats := (recv.Value() - before) / (runs + 1) // AllocsPerRun adds a warm-up call
			if beats < 10_000 {
				t.Fatalf("a window carried %v heartbeats, want at least 10k", beats)
			}
			t.Logf("%.0f allocations over %.0f heartbeats per window", perRun, beats)
			if ev := d.TakeEvents(); len(ev) != 0 {
				t.Fatalf("the detector heard a healthy overlay and still emitted %d events, first %+v", len(ev), ev[0])
			}
			if got := perRun / beats; got > 0.01 {
				t.Fatalf("%.3f allocations per observed heartbeat, want <= 0.01", got)
			}
		})
	}
}
