package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

// engineSetup builds a small env + overlay + engine on a virtual clock:
// measurement windows are simulated seconds that elapse instantly and
// deterministically.
type engineSetup struct {
	env    *optimizer.Env
	net    *overlay.Network
	engine *Engine
	clk    *simtime.VirtualClock
}

func newEngineSetup(t *testing.T, seed int64) *engineSetup {
	return newEngineSetupLanes(t, seed, 1)
}

// newEngineSetupLanes is newEngineSetup on `shards` data-plane lanes
// (1: the single queue), nodes dealt to lanes round-robin.
func newEngineSetupLanes(t *testing.T, seed int64, shards int) *engineSetup {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubsPerTransit:     1,
		StubNodes:           4,
		IntraStubLatency:    [2]float64{1, 4},
		StubUplinkLatency:   [2]float64{2, 8},
		IntraTransitLatency: [2]float64{5, 15},
		InterTransitLatency: [2]float64{20, 50},
		ExtraStubEdgeProb:   0.2,
	}
	topo := topology.MustGenerate(cfg, rand.New(rand.NewSource(seed)))
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	stubs := topo.StubNodeIDs()
	for i := 0; i < 3; i++ {
		if err := stats.AddStream(query.StreamID(i), stubs[i*4], 50); err != nil {
			t.Fatal(err)
		}
	}
	ecfg := optimizer.DefaultEnvConfig(seed)
	ecfg.UseDHT = false
	ecfg.VivaldiRounds = 20
	env, err := optimizer.NewEnv(topo, stats, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	ncfg := overlay.Config{Clock: simtime.NewVirtual()}
	clk := ncfg.Clock
	if shards > 1 {
		laneOf := make([]int32, topo.NumNodes())
		for i := range laneOf {
			laneOf[i] = int32(i % shards)
		}
		clk.ShardLanes(laneOf, shards, time.Duration(topo.MinEdgeLatency()*float64(time.Millisecond)))
		ncfg.DataShards, ncfg.ShardOf = shards, laneOf
	}
	net := overlay.NewNetwork(topo, ncfg)
	eng := NewEngine(net, topo, DefaultEngineConfig())
	t.Cleanup(func() {
		eng.Close()
		net.Stop()
		clk.Stop()
	})
	return &engineSetup{env: env, net: net, engine: eng, clk: clk}
}

func (s *engineSetup) optimize(t *testing.T, q query.Query) *optimizer.Circuit {
	t.Helper()
	res, err := optimizer.NewIntegrated(s.env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Circuit
}

// runSim advances the simulation by the given number of simulated
// seconds (instant under the virtual clock).
func (s *engineSetup) runSim(simSeconds float64) {
	s.clk.Sleep(time.Duration(simSeconds * 1000 * float64(time.Millisecond)))
}

func TestEngineDeliversFilteredStream(t *testing.T) {
	s := newEngineSetup(t, 1)
	q := query.Query{
		ID:       1,
		Consumer: s.env.Topo.StubNodeIDs()[11],
		Streams:  []query.StreamID{0},
		FilterSel: map[query.StreamID]float64{
			0: 0.5,
		},
	}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(60)
	m := run.Measure()
	if m.TuplesOut == 0 {
		t.Fatal("no tuples delivered")
	}
	// Plan: 50 KB/s source × 0.5 filter = 25 KB/s at the consumer.
	want := c.Plan.OutRate
	if m.OutRateKBs < want*0.5 || m.OutRateKBs > want*1.6 {
		t.Fatalf("delivered rate %v KB/s, want ≈%v", m.OutRateKBs, want)
	}
	if m.MeanLatencyMs <= 0 {
		t.Fatalf("mean latency %v", m.MeanLatencyMs)
	}
	if m.P95LatencyMs < m.MeanLatencyMs {
		t.Fatal("p95 below mean")
	}
}

func TestEngineMeasuredUsageTracksAnalytic(t *testing.T) {
	s := newEngineSetup(t, 2)
	q := query.Query{
		ID:       2,
		Consumer: s.env.Topo.StubNodeIDs()[9],
		Streams:  []query.StreamID{0},
	}
	c := s.optimize(t, q)
	analytic := c.NetworkUsage(optimizer.TrueLatency{Topo: s.env.Topo})
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(60)
	m := run.Measure()
	if m.NetworkUsage <= 0 {
		t.Fatal("no usage measured")
	}
	ratio := m.NetworkUsage / analytic
	if ratio < 0.5 || ratio > 1.7 {
		t.Fatalf("measured usage %v vs analytic %v (ratio %v)", m.NetworkUsage, analytic, ratio)
	}
}

func TestEngineJoinCircuitFlows(t *testing.T) {
	s := newEngineSetup(t, 3)
	q := query.Query{
		ID:       3,
		Consumer: s.env.Topo.TransitNodeIDs()[0],
		Streams:  []query.StreamID{0, 1},
	}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(120)
	m := run.Measure()
	if m.TuplesOut == 0 {
		t.Fatal("join circuit delivered nothing")
	}
	// Join rates are noisy (window fill, the random key draws): demand
	// only the right order of magnitude versus the plan estimate.
	want := c.Plan.OutRate
	if m.OutRateKBs < want*0.2 || m.OutRateKBs > want*4 {
		t.Fatalf("join delivered rate %v, plan %v", m.OutRateKBs, want)
	}
}

func TestEngineDeployErrors(t *testing.T) {
	s := newEngineSetup(t, 4)
	q := query.Query{ID: 5, Consumer: s.env.Topo.StubNodeIDs()[0], Streams: []query.StreamID{0}}
	c := s.optimize(t, q)
	if _, err := s.engine.Deploy(c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.engine.Deploy(c); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	bad := &optimizer.Circuit{}
	if _, err := s.engine.Deploy(bad); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestEngineRejectsUnresolvableReuse(t *testing.T) {
	s := newEngineSetup(t, 5)
	q := query.Query{ID: 6, Consumer: s.env.Topo.StubNodeIDs()[1], Streams: []query.StreamID{0, 1}}
	c := s.optimize(t, q)
	// A reused service without an instance is a malformed circuit.
	var marked *optimizer.PlacedService
	for _, svc := range c.UnpinnedServices() {
		svc.Reused = true
		marked = svc
		break
	}
	if _, err := s.engine.Deploy(c); err == nil {
		t.Fatal("Deploy accepted a reused service without an instance")
	}
	// A reused service whose owning circuit is not executing cannot be
	// wired; the engine names the missing provider.
	marked.ReusedFrom = &optimizer.ServiceInstance{
		Signature: marked.Signature,
		Node:      marked.Node,
		Owner:     999,
		RefCount:  2,
	}
	if _, err := s.engine.Deploy(c); !errors.Is(err, ErrProviderNotRunning) {
		t.Fatalf("Deploy = %v, want ErrProviderNotRunning", err)
	}
}

func TestEngineStop(t *testing.T) {
	s := newEngineSetup(t, 6)
	q := query.Query{ID: 7, Consumer: s.env.Topo.StubNodeIDs()[2], Streams: []query.StreamID{0}}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(30)
	if err := s.engine.Stop(q.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Stop(q.ID); err == nil {
		t.Fatal("double stop accepted")
	}
	// After stop, output must cease (in-flight deliveries hit
	// unregistered ports and are dropped as unrouted).
	base := run.Measure().TuplesOut
	s.runSim(30)
	if after := run.Measure().TuplesOut; after != base {
		t.Fatalf("tuples still flowing after stop: %d -> %d", base, after)
	}
	// Redeploy under the same ID must work after Stop.
	if _, err := s.engine.Deploy(c); err != nil {
		t.Fatalf("redeploy after stop: %v", err)
	}
}

func TestEngineConcurrentCircuits(t *testing.T) {
	s := newEngineSetup(t, 7)
	stubs := s.env.Topo.StubNodeIDs()
	runs := make([]*Running, 0, 3)
	for i := 0; i < 3; i++ {
		q := query.Query{
			ID:       query.QueryID(10 + i),
			Consumer: stubs[13+i],
			Streams:  []query.StreamID{query.StreamID(i % 3)},
		}
		c := s.optimize(t, q)
		run, err := s.engine.Deploy(c)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	s.runSim(30)
	for i, run := range runs {
		if m := run.Measure(); m.TuplesOut == 0 {
			t.Fatalf("circuit %d delivered nothing", i)
		}
	}
}

func TestMeasurementSimSecondsPositive(t *testing.T) {
	s := newEngineSetup(t, 8)
	q := query.Query{ID: 20, Consumer: s.env.Topo.StubNodeIDs()[3], Streams: []query.StreamID{0}}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	s.runSim(5)
	m := run.Measure()
	if m.SimSeconds <= 0 || m.Wall <= 0 {
		t.Fatalf("measurement timing invalid: %+v", m)
	}
	if math.IsNaN(m.NetworkUsage) {
		t.Fatal("NaN usage")
	}
}

// TestEngineVirtualRateIsExact pins down the virtual producer's pacing:
// one tuple per interval means a relay circuit delivers the source rate
// with no jitter at all.
func TestEngineVirtualRateIsExact(t *testing.T) {
	s := newEngineSetup(t, 9)
	q := query.Query{ID: 30, Consumer: s.env.Topo.StubNodeIDs()[5], Streams: []query.StreamID{0}}
	c := s.optimize(t, q)
	run, err := s.engine.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	const window = 40.0 // simulated seconds
	s.runSim(window)
	m1 := run.Measure()
	// 50 KB/s source, 1 KB tuples: one tuple per 20 simulated ms. By
	// t=40s exactly 2000 are emitted; delivery lags only by the (fixed)
	// path latency, well under a simulated second.
	want := int(c.Plan.OutRate * window)
	if m1.TuplesOut > want || m1.TuplesOut < want-60 {
		t.Fatalf("delivered %d tuples at t=%vs, want (%d - latency tail, %d]", m1.TuplesOut, window, want, want)
	}
	// In steady state the delivered count over any further whole second
	// is *exactly* the rate: virtual pacing has zero jitter.
	for i := 0; i < 3; i++ {
		s.runSim(1)
		m2 := run.Measure()
		if got := m2.TuplesOut - m1.TuplesOut; got != int(c.Plan.OutRate) {
			t.Fatalf("second %d delivered %d tuples, want exactly %v", i, got, c.Plan.OutRate)
		}
		m1 = m2
	}
}

// TestEngineDeterministicSameSeed runs an identical two-circuit
// scenario twice from scratch and demands bit-identical measurements —
// the reproducibility contract of the virtual-time engine.
func TestEngineDeterministicSameSeed(t *testing.T) {
	scenario := func() []Measurement {
		s := newEngineSetup(t, 11)
		qs := []query.Query{
			{ID: 1, Consumer: s.env.Topo.StubNodeIDs()[11], Streams: []query.StreamID{0},
				FilterSel: map[query.StreamID]float64{0: 0.5}},
			{ID: 2, Consumer: s.env.Topo.TransitNodeIDs()[0], Streams: []query.StreamID{0, 1}},
		}
		var runs []*Running
		for _, q := range qs {
			run, err := s.engine.Deploy(s.optimize(t, q))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		s.runSim(30)
		var out []Measurement
		for _, r := range runs {
			out = append(out, r.Measure())
		}
		return out
	}
	a, b := scenario(), scenario()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged on circuit %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
