package adapt

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
)

// fixture is a full control-plane + data-plane stack on a virtual clock.
type fixture struct {
	env    *optimizer.Env
	dep    *optimizer.Deployment
	net    *overlay.Network
	engine *stream.Engine
	clk    *simtime.VirtualClock
	runs   []*stream.Running
	co     *Coordinator
}

func newFixture(t *testing.T, seed int64, queries int) *fixture {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubsPerTransit:     2,
		StubNodes:           6,
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
	for i := 0; i < 4; i++ {
		if err := stats.AddStream(query.StreamID(i), stubs[i*5%len(stubs)], 50); err != nil {
			t.Fatal(err)
		}
	}
	envCfg := optimizer.DefaultEnvConfig(seed)
	envCfg.UseDHT = false
	envCfg.VivaldiRounds = 20
	env, err := optimizer.NewEnv(topo, stats, envCfg)
	if err != nil {
		t.Fatal(err)
	}
	ncfg := overlay.Config{Clock: simtime.NewVirtual()}
	clk := ncfg.Clock
	net := overlay.NewNetwork(topo, ncfg)
	eng := stream.NewEngine(net, topo, stream.DefaultEngineConfig())
	dep := optimizer.NewDeployment(env, nil)
	t.Cleanup(func() {
		eng.Close()
		net.Stop()
		clk.Stop()
	})

	f := &fixture{env: env, dep: dep, net: net, engine: eng, clk: clk}
	opt := &optimizer.Integrated{Env: env, Mapper: placement.OracleMapper{Source: env}}
	shapes := [][]query.StreamID{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	for i := 0; i < queries; i++ {
		q := query.Query{
			ID:       query.QueryID(i + 1),
			Consumer: stubs[(7*i+3)%len(stubs)],
			Streams:  shapes[i%len(shapes)],
		}
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			t.Fatal(err)
		}
		run, err := eng.Deploy(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		f.runs = append(f.runs, run)
	}
	f.co = &Coordinator{
		Dep:    dep,
		Engine: eng,
		Clock:  clk,
		Mapper: placement.OracleMapper{Source: env},
	}
	return f
}

// requireConsistent asserts the control plane and data plane agree on
// every service's host.
func requireConsistent(t *testing.T, f *fixture) {
	t.Helper()
	for _, run := range f.runs {
		c := run.Circuit
		for i, s := range c.Services {
			if s.Plan == nil || s.Plan.Kind == query.KindSource {
				continue
			}
			if got := run.Host(i); got != s.Node {
				t.Fatalf("q%d service %d: engine on %d, deployment says %d", c.Query.ID, i, got, s.Node)
			}
		}
	}
}

func requireNoLossCounters(t *testing.T, f *fixture) {
	t.Helper()
	if v := f.net.Metrics.Counter("msgs.unrouted").Value(); v != 0 {
		t.Fatalf("msgs.unrouted = %v", v)
	}
	if v := f.net.Metrics.Counter("msgs.down_dropped").Value(); v != 0 {
		t.Fatalf("msgs.down_dropped = %v", v)
	}
}

func TestSweepMigratesRunningCircuits(t *testing.T) {
	f := newFixture(t, 41, 4)
	f.clk.Sleep(2 * time.Second)

	// Overload the busiest operator host so the sweep has moves.
	hosts := map[topology.NodeID]int{}
	for _, run := range f.runs {
		for _, s := range run.Circuit.UnpinnedServices() {
			hosts[s.Node]++
		}
	}
	var victim topology.NodeID
	best := -1
	for n, k := range hosts {
		if k > best || (k == best && n < victim) {
			victim, best = n, k
		}
	}
	f.env.SetBackgroundLoad(victim, 5.0)

	st, err := f.co.SweepIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated == 0 {
		t.Fatal("sweep migrated nothing off an overloaded node")
	}
	if st.DataPlane == 0 {
		t.Fatal("no data-plane handoffs despite running circuits")
	}
	if st.SettleDuration <= 0 {
		t.Fatal("no settle time recorded")
	}
	requireConsistent(t, f)

	f.clk.Sleep(time.Second)
	for _, run := range f.runs {
		run.HaltProducers()
	}
	f.clk.Sleep(time.Second)
	var produced, delivered int
	for _, run := range f.runs {
		produced += run.TuplesProduced()
		delivered += run.Measure().TuplesOut
	}
	// Joins don't conserve counts; loss is asserted via the counters
	// plus delivery still flowing.
	if produced == 0 || delivered == 0 {
		t.Fatalf("dataflow dead after sweep: produced %d delivered %d", produced, delivered)
	}
	requireNoLossCounters(t, f)
}

// TestControlPlaneOnlyCoordinatorHasItsOwnClock: a coordinator with
// neither engine nor clock commits moves instantly on a private clock
// that only its own waits advance, so a sweep and a repair round both
// take exactly zero time.
func TestControlPlaneOnlyCoordinatorHasItsOwnClock(t *testing.T) {
	f := newFixture(t, 41, 4)
	co := &Coordinator{Dep: f.dep, Mapper: placement.OracleMapper{Source: f.env}}
	victim := f.runs[0].Circuit.UnpinnedServices()[0].Node
	f.env.SetBackgroundLoad(victim, 5.0)
	st, err := co.SweepIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated == 0 || st.DataPlane != 0 {
		t.Fatalf("migrated %d, %d on a data plane; want moves, none on a data plane", st.Migrated, st.DataPlane)
	}
	if st.SettleDuration != 0 {
		t.Fatalf("control-plane sweep took %v, want exactly 0", st.SettleDuration)
	}
	host := topology.NodeID(-1)
	for _, c := range f.dep.Circuits() {
		for _, s := range c.UnpinnedServices() {
			host = s.Node
		}
	}
	rep, err := co.repair([]topology.NodeID{host})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 || rep.Duration != 0 {
		t.Fatalf("repair re-placed %d services in %v, want some in exactly 0", rep.Repaired, rep.Duration)
	}
	if co.Clock == nil || co.Clock == f.clk {
		t.Fatal("coordinator without a clock did not get a private one")
	}
}

func TestSweepBudgetCapsMigrations(t *testing.T) {
	f := newFixture(t, 42, 5)
	f.clk.Sleep(time.Second)
	// Overload several hosts.
	for _, run := range f.runs[:3] {
		for _, s := range run.Circuit.UnpinnedServices() {
			f.env.SetBackgroundLoad(s.Node, 4.0)
			break
		}
	}
	f.co.Budget = 1
	st, err := f.co.SweepIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Planned != 1 || st.Migrated > 1 {
		t.Fatalf("budget 1 but planned %d / migrated %d", st.Planned, st.Migrated)
	}
	requireConsistent(t, f)

	// Select replaces the Budget rule, in SweepIncremental and in Round
	// alike.
	for _, s := range f.runs[3].Circuit.UnpinnedServices() {
		f.env.SetBackgroundLoad(s.Node, 4.0)
	}
	offered := 0
	f.co.Select = func(plan optimizer.MigrationPlan) optimizer.MigrationPlan {
		offered += len(plan.Moves)
		plan.Moves = nil
		return plan
	}
	if st, err = f.co.SweepIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if offered == 0 || st.Planned != 0 || st.Migrated != 0 {
		t.Fatalf("Select chose no move of %d offered, but the sweep planned %d / migrated %d", offered, st.Planned, st.Migrated)
	}
	f.co.Select = nil
	rs, err := f.co.Round(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := rs.Sweep; st.Planned != 1 || st.Migrated > 1 {
		t.Fatalf("budget 1 but the round planned %d / migrated %d", st.Planned, st.Migrated)
	}
	requireConsistent(t, f)
}

func TestEvacuateDrainsNodeBeforeKill(t *testing.T) {
	f := newFixture(t, 43, 4)
	f.clk.Sleep(time.Second)

	// Victim: any node hosting at least one unpinned service and no
	// pinned endpoints.
	pinned := map[topology.NodeID]bool{}
	hosts := map[topology.NodeID]int{}
	for _, run := range f.runs {
		for _, s := range run.Circuit.Services {
			if s.Plan == nil || s.Plan.Kind == query.KindSource || s.Pinned {
				pinned[s.Node] = true
				continue
			}
			hosts[s.Node]++
		}
	}
	victim := topology.NodeID(-1)
	for n := range hosts {
		if !pinned[n] && (victim < 0 || n < victim) {
			victim = n
		}
	}
	if victim < 0 {
		t.Fatal("no drainable victim: the fixture must place an operator on a node that pins no endpoint")
	}

	// Neither selection rule may truncate a drain.
	f.co.Exclude = map[topology.NodeID]bool{victim: true}
	f.co.Budget = 1
	f.co.Select = func(optimizer.MigrationPlan) optimizer.MigrationPlan { return optimizer.MigrationPlan{} }
	st, err := f.co.Evacuate([]topology.NodeID{victim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated != hosts[victim] {
		t.Fatalf("evacuated %d services, victim hosted %d", st.Migrated, hosts[victim])
	}
	requireConsistent(t, f)
	for _, run := range f.runs {
		for _, s := range run.Circuit.Services {
			if s.Plan != nil && s.Plan.Kind != query.KindSource && s.Node == victim {
				t.Fatalf("service still bound to drained node %d", victim)
			}
		}
	}

	// Now the node can die without data loss.
	f.net.SetNodeDown(victim, true)
	f.clk.Sleep(2 * time.Second)
	requireNoLossCounters(t, f)
}

func TestSweepDeterministic(t *testing.T) {
	type outcome struct {
		migrated, dataPlane, buffered int
		settle                        time.Duration
		gain                          float64
	}
	runOnce := func() outcome {
		f := newFixture(t, 44, 4)
		f.clk.Sleep(time.Second)
		var victim topology.NodeID = -1
		for _, run := range f.runs {
			if u := run.Circuit.UnpinnedServices(); len(u) > 0 {
				victim = u[0].Node
				break
			}
		}
		f.env.SetBackgroundLoad(victim, 5.0)
		st, err := f.co.SweepIncremental(nil)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{st.Migrated, st.DataPlane, st.Buffered, st.SettleDuration, st.PredictedGain}
	}
	a, b := runOnce(), runOnce()
	if a.migrated != b.migrated || a.dataPlane != b.dataPlane || a.buffered != b.buffered ||
		a.settle != b.settle || math.Abs(a.gain-b.gain) > 1e-12 {
		t.Fatalf("same-seed sweeps diverge:\n%+v\n%+v", a, b)
	}
}

// TestSettleReturnsLoadFixedPoint pins the two-phase release end-to-end:
// after a sweep settles, every node's load must equal background base
// plus exactly its currently hosted services.
func TestSettleReturnsLoadFixedPoint(t *testing.T) {
	f := newFixture(t, 45, 4)
	f.clk.Sleep(time.Second)
	var victim topology.NodeID = -1
	for _, run := range f.runs {
		if u := run.Circuit.UnpinnedServices(); len(u) > 0 {
			victim = u[0].Node
			break
		}
	}
	f.env.SetBackgroundLoad(victim, 5.0)
	if _, err := f.co.SweepIncremental(nil); err != nil {
		t.Fatal(err)
	}
	perRate := optimizer.LoadPerRate
	hosted := map[topology.NodeID]float64{}
	for _, c := range f.dep.Circuits() {
		for _, s := range c.NewServices() {
			hosted[s.Node] += s.InRate * perRate
		}
	}
	// Each node's load minus its hosted services must be non-negative
	// (the base) and *stable*: a second control-plane-only sweep cycle
	// of Begin+Abort must not shift anything.
	before := map[topology.NodeID]float64{}
	for _, id := range f.env.NodeIDs() {
		resid := f.env.Load(id) - hosted[id]
		if resid < -1e-9 {
			t.Fatalf("node %d load %v below hosted services %v — dangling double charge", id, f.env.Load(id), hosted[id])
		}
		before[id] = f.env.Load(id)
	}
	plan, err := f.co.reopt().Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		tk, err := f.dep.BeginMigration(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range f.env.NodeIDs() {
		if math.Abs(f.env.Load(id)-before[id]) > 1e-9 {
			t.Fatalf("node %d load drifted %v → %v through Begin+Abort cycle", id, before[id], f.env.Load(id))
		}
	}
}

func TestSweepCancellable(t *testing.T) {
	f := newFixture(t, 46, 3)
	f.clk.Sleep(time.Second)
	var victim topology.NodeID = -1
	for _, run := range f.runs {
		if u := run.Circuit.UnpinnedServices(); len(u) > 0 {
			victim = u[0].Node
			break
		}
	}
	f.env.SetBackgroundLoad(victim, 5.0)
	cancel := make(chan struct{})
	// Fire the cancellation deterministically mid-settle via the clock.
	f.clk.AfterFunc(time.Millisecond, func() { close(cancel) })
	st, err := f.co.SweepIncremental(cancel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated > 0 && !st.Cancelled {
		// The settle may legitimately finish before 1ms if no data-plane
		// migrations were needed; only a started settle can be cut.
		if st.DataPlane > 0 && st.SettleDuration > time.Millisecond {
			t.Fatal("settle ignored cancellation")
		}
	}
	// Even cancelled, control and data plane must not diverge once the
	// engine's handoffs finish.
	f.clk.Sleep(2 * time.Second)
	requireConsistent(t, f)
}

// TestSweepWaitsForAllHandoffs is the regression test for the settle
// tie-break: the settle wake and the last teardown timer land on the
// same virtual instant, and FIFO sequence order would fire the wake
// first if the sleep did not outlast ScheduledEnd. Every migration must
// be fully complete (Done closed, counters final) when the sweep returns.
func TestSweepWaitsForAllHandoffs(t *testing.T) {
	for _, seed := range []int64{1, 2, 11, 41} {
		f := newFixture(t, seed, 3)
		f.clk.Sleep(time.Second)
		var victim topology.NodeID = -1
		for _, run := range f.runs {
			if u := run.Circuit.UnpinnedServices(); len(u) > 0 {
				victim = u[0].Node
				break
			}
		}
		f.env.SetBackgroundLoad(victim, 5.0)
		st, err := f.co.SweepIncremental(nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.DataPlane == 0 {
			continue
		}
		for _, run := range f.runs {
			for _, m := range run.Migrations() {
				select {
				case <-m.Done():
				default:
					t.Fatalf("seed %d: the sweep returned with migration q%d/s%d still pending",
						seed, m.Query, m.Service)
				}
				if m.Aborted {
					t.Fatalf("seed %d: migration aborted during a plain sweep", seed)
				}
			}
		}
	}
}

// TestSharedInstanceMigrationInvariant drives the acceptance-criterion
// invariant end to end: a circuit reuses another's service on both
// planes, the shared instance migrates through the two-phase protocol,
// and afterwards the owner circuit, every consumer circuit, the
// registry entry, and the engine's routing all agree on the new host —
// no stale Node anywhere, with zero tuple loss.
func TestSharedInstanceMigrationInvariant(t *testing.T) {
	f := newFixture(t, 77, 1)
	owner := f.runs[0]
	ownerC := owner.Circuit

	// Locate the owner's registered root instance and its service.
	rootSig := ownerC.Root().Signature
	var inst *optimizer.ServiceInstance
	for _, i := range f.dep.Registry.Instances() {
		if i.Signature == rootSig {
			inst = i
		}
	}
	if inst == nil {
		t.Fatal("owner deployment registered no root instance")
	}
	ownerSvc := -1
	for i, s := range ownerC.Services {
		if !s.Reused && s.Plan != nil && s.Signature == rootSig {
			ownerSvc = i
		}
	}
	if ownerSvc < 0 {
		t.Fatal("no executing service for the root instance")
	}

	// Deploy a consumer circuit that reuses the instance, on both planes.
	b := &optimizer.Builder{Env: f.env}
	stubs := f.env.Topo.StubNodeIDs()
	cq := query.Query{ID: 50, Consumer: stubs[11], Streams: ownerC.Query.Streams}
	consC, err := b.Skeleton(cq, ownerC.Plan, func(n *query.PlanNode) *optimizer.ServiceInstance {
		if n.Signature() == inst.Signature {
			return inst
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.dep.Deploy(consC); err != nil {
		t.Fatal(err)
	}
	consRun, err := f.engine.Deploy(consC)
	if err != nil {
		t.Fatal(err)
	}
	consSvc := -1
	for i, s := range consC.Services {
		if s.Reused {
			consSvc = i
		}
	}
	f.clk.Sleep(2 * time.Second)

	// Move the shared instance through the adaptation layer.
	var target topology.NodeID = stubs[17]
	if target == inst.Node {
		target = stubs[16]
	}
	plan := optimizer.MigrationPlan{Moves: []optimizer.Migration{{
		Query: ownerC.Query.ID, Service: ownerSvc, Signature: rootSig,
		From: inst.Node, To: target, InRate: ownerC.Services[ownerSvc].InRate,
	}}}
	st, err := f.co.execute(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrated != 1 || st.DataPlane != 1 {
		t.Fatalf("execute stats = %+v, want 1 committed data-plane move", st)
	}

	// The invariant: one truth about where the instance lives.
	if inst.Node != target {
		t.Fatalf("instance on %d, want %d", inst.Node, target)
	}
	if got := ownerC.Services[ownerSvc].Node; got != target {
		t.Fatalf("owner circuit binds %d, want %d", got, target)
	}
	for i, s := range consC.Services {
		if s.Reused && s.Node != target {
			t.Fatalf("consumer circuit service %d still binds %d (stale), want %d", i, s.Node, target)
		}
	}
	if got := owner.Host(ownerSvc); got != target {
		t.Fatalf("engine executes owner service on %d, want %d", got, target)
	}
	if got := consRun.Host(consSvc); got != target {
		t.Fatalf("engine routes consumer's reused service to %d, want %d", got, target)
	}

	// And the dataflow survived it: quiesce, conserve, no loss.
	f.clk.Sleep(2 * time.Second)
	if consRun.SharedIn() == 0 {
		t.Fatal("consumer never received shared tuples")
	}
	if consRun.Measure().TuplesOut == 0 {
		t.Fatal("consumer sink delivered nothing")
	}
	requireNoLossCounters(t, f)
}
