package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// smallTopo returns a ~20-node transit-stub topology for fast tests.
func smallTopo(t *testing.T, seed int64) *topology.Topology {
	t.Helper()
	cfg := topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubsPerTransit:     1,
		StubNodes:           4,
		IntraStubLatency:    [2]float64{1, 5},
		StubUplinkLatency:   [2]float64{2, 10},
		IntraTransitLatency: [2]float64{8, 20},
		InterTransitLatency: [2]float64{30, 80},
		ExtraStubEdgeProb:   0.2,
	}
	return topology.MustGenerate(cfg, rand.New(rand.NewSource(seed)))
}

// testSetup builds a small env with a 4-stream catalog: producers placed
// on stub nodes of distinct domains.
func testSetup(t *testing.T, seed int64, useDHT bool) (*Env, query.Query) {
	t.Helper()
	topo := smallTopo(t, seed)
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	stubs := topo.StubNodeIDs()
	rng := rand.New(rand.NewSource(seed + 1000))
	for i := 0; i < 4; i++ {
		prod := stubs[(i*len(stubs)/4+rng.Intn(2))%len(stubs)]
		if err := stats.AddStream(query.StreamID(i), prod, 50+rng.Float64()*200); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultEnvConfig(seed)
	cfg.UseDHT = useDHT
	cfg.VivaldiRounds = 25
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		ID:       1,
		Consumer: stubs[len(stubs)-1],
		Streams:  []query.StreamID{0, 1, 2, 3},
	}
	return env, q
}

func TestNewEnvBasics(t *testing.T) {
	env, _ := testSetup(t, 1, true)
	n := env.Topo.NumNodes()
	if len(env.NodeIDs()) != n {
		t.Fatalf("NodeIDs() has %d entries, want %d", len(env.NodeIDs()), n)
	}
	for _, id := range env.NodeIDs() {
		p := env.Point(id)
		if len(p) != env.Space().Dims() {
			t.Fatalf("point for node %d has %d dims", id, len(p))
		}
		if env.Load(id) < 0 || env.Load(id) >= 1 {
			t.Fatalf("node %d load %v out of range", id, env.Load(id))
		}
	}
	if env.Catalog() == nil {
		t.Fatal("UseDHT env has nil catalog")
	}
	if env.Catalog().NumPublished() != n {
		t.Fatalf("catalog has %d entries, want %d", env.Catalog().NumPublished(), n)
	}
	if env.EmbeddingQuality.Pairs == 0 {
		t.Fatal("embedding quality not measured")
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(nil, nil, DefaultEnvConfig(1)); err == nil {
		t.Fatal("nil topology accepted")
	}
}

// Env implements placement.NodeSource.
var _ placement.NodeSource = (*Env)(nil)

func TestLoadAccounting(t *testing.T) {
	env, _ := testSetup(t, 2, true)
	node := topology.NodeID(5)
	before := env.Load(node)
	beforePt := env.Point(node).Clone()

	env.AddServiceLoad(node, 2000) // 2000 KB/s * 1/2000 = +1.0 load
	if got := env.Load(node); math.Abs(got-(before+1.0)) > 1e-9 {
		t.Fatalf("load after add = %v, want %v", got, before+1.0)
	}
	after := env.Point(node)
	if env.Space().Distance(beforePt, after) == 0 {
		t.Fatal("point unchanged after load change")
	}
	// Catalog must see the update.
	e, ok := env.Catalog().PublishedEntry(node)
	if !ok || env.Space().Distance(e.Point, after) != 0 {
		t.Fatal("catalog entry not refreshed")
	}

	env.RemoveServiceLoad(node, 2000)
	if got := env.Load(node); math.Abs(got-before) > 1e-9 {
		t.Fatalf("load after remove = %v, want %v", got, before)
	}
	// Removing more than present floors at background.
	env.RemoveServiceLoad(node, 99999)
	if got := env.Load(node); got < 0 || math.Abs(got-before) > 1e-9 {
		t.Fatalf("load floored to %v, want background %v", got, before)
	}
}

func TestSetBackgroundLoad(t *testing.T) {
	env, _ := testSetup(t, 3, false)
	env.SetBackgroundLoad(2, 0.9)
	if got := env.Load(2); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("load = %v, want 0.9", got)
	}
	env.SetBackgroundLoad(2, -5)
	if got := env.Load(2); got != 0 {
		t.Fatalf("negative background load gave %v, want 0", got)
	}
}

func TestSkeletonShape(t *testing.T) {
	env, q := testSetup(t, 4, false)
	enum := plan.NewEnumerator(env.Stats)
	p, err := enum.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Env: env}
	c, err := b.Skeleton(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 sources + 3 joins + consumer = 8 services; 6 child links + 1
	// consumer link = 7.
	if len(c.Services) != 8 {
		t.Fatalf("services = %d, want 8", len(c.Services))
	}
	if len(c.Links) != 7 {
		t.Fatalf("links = %d, want 7", len(c.Links))
	}
	if got := len(c.UnpinnedServices()); got != 3 {
		t.Fatalf("unpinned = %d, want 3", got)
	}
	// Sources pinned at their producers.
	for _, s := range c.Services {
		if s.Plan != nil && s.Plan.Kind == query.KindSource {
			prod, _ := env.Stats.Producer(s.Plan.Stream)
			if !s.Pinned || s.Node != prod {
				t.Fatalf("source %d not pinned at producer", s.Plan.Stream)
			}
		}
	}
	if c.Consumer().Node != q.Consumer {
		t.Fatal("consumer sink not at consumer node")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("skeleton should validate (unpinned default to node 0): %v", err)
	}
}

func TestSkeletonFilterPushdown(t *testing.T) {
	env, q := testSetup(t, 5, false)
	q.FilterSel = map[query.StreamID]float64{0: 0.5}
	enum := plan.NewEnumerator(env.Stats)
	p, err := enum.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Env: env}
	c, err := b.Skeleton(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range c.Services {
		if s.Plan != nil && s.Plan.Kind == query.KindFilter {
			found = true
			prod, _ := env.Stats.Producer(0)
			if !s.Pinned || s.Node != prod {
				t.Fatal("filter above source not pushed down to producer")
			}
		}
	}
	if !found {
		t.Fatal("filter service missing")
	}
}

func TestIntegratedOptimizeProducesValidCircuit(t *testing.T) {
	for _, useDHT := range []bool{false, true} {
		env, q := testSetup(t, 6, useDHT)
		opt := NewIntegrated(env)
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("useDHT=%v: %v", useDHT, err)
		}
		if res.Circuit == nil {
			t.Fatal("nil circuit")
		}
		if err := res.Circuit.Validate(); err != nil {
			t.Fatalf("invalid circuit: %v", err)
		}
		// 15 = (2·4-3)!! unordered binary join trees over four streams.
		if res.PlansConsidered != 15 {
			t.Fatalf("considered %d plans, want 15", res.PlansConsidered)
		}
		if res.CircuitsConsidered != res.PlansConsidered {
			t.Fatalf("circuits %d != plans %d", res.CircuitsConsidered, res.PlansConsidered)
		}
		if res.EstimatedUsage <= 0 {
			t.Fatalf("estimated usage %v", res.EstimatedUsage)
		}
		usage := res.Circuit.NetworkUsage(TrueLatency{Topo: env.Topo})
		if usage <= 0 {
			t.Fatalf("measured usage %v", usage)
		}
		lat := res.Circuit.ConsumerLatency(TrueLatency{Topo: env.Topo})
		if lat <= 0 {
			t.Fatalf("consumer latency %v", lat)
		}
	}
}

// With oracle selection (true latency model + oracle mapper), integrated
// optimization can never lose to two-step: it evaluates a superset of
// candidate circuits through the same deterministic pipeline.
func TestIntegratedNeverWorseThanTwoStep(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		env, q := testSetup(t, 100+seed, false)
		truth := TrueLatency{Topo: env.Topo}
		mapper := placement.OracleMapper{Source: env}

		integrated := &Integrated{Env: env, Model: truth, Mapper: mapper}
		twostep := &TwoStep{Env: env, Model: truth, Mapper: mapper}

		ri, err := integrated.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := twostep.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		ui := ri.Circuit.NetworkUsage(truth)
		ut := rt.Circuit.NetworkUsage(truth)
		if ui > ut+1e-9 {
			t.Fatalf("seed %d: integrated %v worse than two-step %v", seed, ui, ut)
		}
	}
}

// Figure 1 scenario: producer pairs in two distant clusters, consumer
// midway. The bushy plan should beat the left-deep chain after placement.
func TestFigure1ScenarioIntegratedPicksBetterShape(t *testing.T) {
	topo := smallTopo(t, 7)
	stats, err := query.NewCatalog(1.0) // equal selectivities: plans tie on rate
	if err != nil {
		t.Fatal(err)
	}
	// Two stub domains far apart: domain 0 gets P1,P2; the last domain
	// gets P3,P4.
	d0 := topo.StubDomainMembers(0)
	dN := topo.StubDomainMembers(topo.NumStubDomains() - 1)
	producers := []topology.NodeID{d0[0], d0[1], dN[0], dN[1]}
	for i, p := range producers {
		if err := stats.AddStream(query.StreamID(i), p, 100); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultEnvConfig(7)
	cfg.UseDHT = false
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{ID: 1, Consumer: topo.TransitNodeIDs()[0], Streams: []query.StreamID{0, 1, 2, 3}}

	truth := TrueLatency{Topo: env.Topo}
	mapper := placement.OracleMapper{Source: env}
	integrated := &Integrated{Env: env, Model: truth, Mapper: mapper}
	res, err := integrated.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen plan must exploit the geometry with at least one
	// cluster-local join (which plan wins overall depends on where the
	// consumer sits).
	sigs := map[string]bool{}
	for _, s := range res.Circuit.Services {
		if s.Plan != nil {
			sigs[s.Plan.Signature()] = true
		}
	}
	if !sigs["join(s0,s1)"] && !sigs["join(s2,s3)"] {
		t.Fatalf("integrated picked no cluster-local join: %v", res.Circuit.Plan)
	}
	// And it must beat the adversarial cross-cluster bushy plan
	// ((S0⋈S2)⋈(S1⋈S3)) placed through the same pipeline.
	leaf := func(s query.StreamID) *query.PlanNode { return &query.PlanNode{Kind: query.KindSource, Stream: s} }
	cross := query.NewJoin(
		query.NewJoin(leaf(0), leaf(2)),
		query.NewJoin(leaf(1), leaf(3)),
	)
	if err := cross.ComputeRates(stats); err != nil {
		t.Fatal(err)
	}
	crossCircuit, err := (RelaxationStrategy{Mapper: mapper}).PlaceCircuit(env, q, cross)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.NetworkUsage(truth) > crossCircuit.NetworkUsage(truth)+1e-9 {
		t.Fatalf("integrated usage %v worse than cross-cluster plan %v",
			res.Circuit.NetworkUsage(truth), crossCircuit.NetworkUsage(truth))
	}
}

func TestPlacementStrategiesProduceValidCircuits(t *testing.T) {
	env, q := testSetup(t, 8, false)
	enum := plan.NewEnumerator(env.Stats)
	p, err := enum.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := TrueLatency{Topo: env.Topo}
	strategies := []PlacementStrategy{
		RelaxationStrategy{},
		RandomStrategy{Rng: rand.New(rand.NewSource(1))},
		ConsumerStrategy{},
		ProducerStrategy{},
	}
	usages := map[string]float64{}
	for _, s := range strategies {
		c, err := s.PlaceCircuit(env, q, p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: invalid circuit: %v", s.Name(), err)
		}
		usages[s.Name()] = c.NetworkUsage(truth)
	}
	for name, u := range usages {
		if u <= 0 {
			t.Fatalf("%s usage = %v", name, u)
		}
	}
}

func TestExhaustiveStrategyOptimal(t *testing.T) {
	env, q := testSetup(t, 9, false)
	// 2-way join: 1 unpinned service; exhaustive over all 20 nodes.
	q.Streams = q.Streams[:2]
	enum := plan.NewEnumerator(env.Stats)
	p, err := enum.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := TrueLatency{Topo: env.Topo}
	ex, err := (ExhaustiveStrategy{Model: truth}).PlaceCircuit(env, q, p)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := (RelaxationStrategy{Mapper: placement.OracleMapper{Source: env}}).PlaceCircuit(env, q, p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NetworkUsage(truth) > rl.NetworkUsage(truth)+1e-9 {
		t.Fatalf("exhaustive %v worse than relaxation %v", ex.NetworkUsage(truth), rl.NetworkUsage(truth))
	}
}

func TestExhaustiveStrategyLimit(t *testing.T) {
	env, q := testSetup(t, 10, false)
	enum := plan.NewEnumerator(env.Stats)
	p, err := enum.Best(q) // 3 unpinned services
	if err != nil {
		t.Fatal(err)
	}
	s := ExhaustiveStrategy{MaxAssignments: 10}
	if _, err := s.PlaceCircuit(env, q, p); err == nil {
		t.Fatal("exhaustive accepted oversized search space")
	}
}

func TestDeploymentLoadAndRegistry(t *testing.T) {
	env, q := testSetup(t, 11, false)
	opt := NewIntegrated(env)
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	dep := NewDeployment(env, nil)
	if err := dep.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	if dep.NumDeployed() != 1 {
		t.Fatalf("NumDeployed = %d", dep.NumDeployed())
	}
	// 3 joins registered as shareable instances.
	if dep.Registry.Len() != 3 {
		t.Fatalf("registry has %d instances, want 3", dep.Registry.Len())
	}
	if err := dep.Deploy(res.Circuit); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	usage := dep.TotalUsage(TrueLatency{Topo: env.Topo})
	if usage <= 0 {
		t.Fatalf("TotalUsage = %v", usage)
	}
	// Hosting nodes are loaded.
	loaded := false
	for _, s := range res.Circuit.UnpinnedServices() {
		if env.Load(s.Node) > 0 {
			loaded = true
		}
	}
	if !loaded {
		t.Fatal("no load charged for deployed services")
	}
	if err := dep.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if dep.Registry.Len() != 0 {
		t.Fatalf("registry has %d instances after cancel", dep.Registry.Len())
	}
	if err := dep.Cancel(q.ID); err == nil {
		t.Fatal("double cancel accepted")
	}
}

func TestMultiQueryRadiusZeroMatchesIntegrated(t *testing.T) {
	env, q := testSetup(t, 12, false)
	reg := NewRegistry()
	mq := NewMultiQuery(env, reg, 0)
	ri, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if rm.ReusedServices != 0 || rm.InstancesExamined != 0 {
		t.Fatalf("radius 0 produced reuse: %+v", rm)
	}
	if math.Abs(ri.EstimatedUsage-rm.EstimatedUsage) > 1e-9 {
		t.Fatalf("radius-0 MQO usage %v != integrated %v", rm.EstimatedUsage, ri.EstimatedUsage)
	}
}

func TestMultiQueryReusesIdenticalQuery(t *testing.T) {
	env, q := testSetup(t, 13, false)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	mq := NewMultiQuery(env, reg, math.Inf(1))

	r1, err := mq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Deploy(r1.Circuit); err != nil {
		t.Fatal(err)
	}
	before := reg.Len()

	// Same query shape from a different consumer: the whole plan tree is
	// shareable.
	q2 := q
	q2.ID = 2
	q2.Consumer = env.Topo.StubNodeIDs()[0]
	r2, err := mq.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedServices == 0 {
		t.Fatal("identical query reused nothing with infinite radius")
	}
	truth := TrueLatency{Topo: env.Topo}
	fresh, err := NewIntegrated(env).Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Circuit.NetworkUsage(truth) > fresh.Circuit.NetworkUsage(truth)+1e-9 {
		t.Fatalf("reuse circuit usage %v worse than fresh %v",
			r2.Circuit.NetworkUsage(truth), fresh.Circuit.NetworkUsage(truth))
	}
	if err := dep.Deploy(r2.Circuit); err != nil {
		t.Fatal(err)
	}
	// Reusing the root service adds no new instances.
	if reg.Len() != before {
		t.Fatalf("registry grew from %d to %d despite full reuse", before, reg.Len())
	}
	// The shared instance must have refcount 2; cancel both and the
	// registry must drain.
	if err := dep.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if reg.Len() == 0 {
		t.Fatal("instances dropped while still referenced by q2")
	}
	if err := dep.Cancel(q2.ID); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry has %d instances after all cancels", reg.Len())
	}
}

func TestMultiQueryExaminedGrowsWithRadius(t *testing.T) {
	env, q := testSetup(t, 14, false)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	seedOpt := NewIntegrated(env)
	// Deploy a few circuits to populate the registry.
	for i := 0; i < 3; i++ {
		qq := q
		qq.ID = query.QueryID(10 + i)
		qq.Streams = q.Streams[:2+i%3]
		qq.Consumer = env.Topo.StubNodeIDs()[i*3]
		res, err := seedOpt.Optimize(qq)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			t.Fatal(err)
		}
	}
	examined := make([]int, 0, 3)
	for _, r := range []float64{5, 50, 1e9} {
		mq := NewMultiQuery(env, reg, r)
		qq := q
		qq.ID = 99
		res, err := mq.Optimize(qq)
		if err != nil {
			t.Fatal(err)
		}
		examined = append(examined, res.InstancesExamined)
	}
	if examined[0] > examined[1] || examined[1] > examined[2] {
		t.Fatalf("examined not monotone in radius: %v", examined)
	}
}

func TestReoptimizerMigratesAwayFromLoadedNode(t *testing.T) {
	env, q := testSetup(t, 15, false)
	opt := &Integrated{Env: env, Mapper: placement.OracleMapper{Source: env}}
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	dep := NewDeployment(env, nil)
	if err := dep.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	reopt := NewReoptimizer(dep)
	reopt.Mapper = placement.OracleMapper{Source: env}

	// Without changes, a sweep should be stable (hysteresis).
	firstMigrations := len(planAndCommit(t, reopt).Moves)

	// Massively load one hosting node: the mapper must route around it.
	victim := res.Circuit.UnpinnedServices()[0].Node
	env.SetBackgroundLoad(victim, 5.0)
	st2 := planAndCommit(t, reopt)
	if st2.ServicesEvaluated == 0 {
		t.Fatal("no services evaluated")
	}
	// The heavily loaded node should lose at least one service across the
	// two sweeps (allowing the first sweep to have already moved things).
	stillThere := 0
	for _, s := range res.Circuit.UnpinnedServices() {
		if s.Node == victim {
			stillThere++
		}
	}
	if stillThere > 0 && len(st2.Moves) == 0 && firstMigrations == 0 {
		t.Fatal("overloaded node kept its services and nothing migrated")
	}
}

func TestCircuitValidateErrors(t *testing.T) {
	c := &Circuit{}
	if err := c.Validate(); err == nil {
		t.Fatal("empty circuit accepted")
	}
}

func TestRegistryFindWithinRadius(t *testing.T) {
	env, _ := testSetup(t, 17, false)
	reg := NewRegistry()
	space := env.Space()
	mk := func(sig string, node topology.NodeID) *ServiceInstance {
		inst := &ServiceInstance{Signature: sig, Node: node, Coord: env.Point(node).Clone(), RefCount: 1}
		reg.Register(inst)
		return inst
	}
	a := mk("join(s0,s1)", 0)
	mk("join(s0,s1)", 10)
	mk("join(s2,s3)", 1)

	target := env.Point(0)
	matches, examined := reg.FindWithinRadius(space, target, 1e9, "join(s0,s1)")
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
	if matches[0] != a {
		t.Fatal("nearest instance not first")
	}
	if examined != 3 {
		t.Fatalf("examined = %d, want 3", examined)
	}
	_, examined = reg.FindWithinRadius(space, target, 0.0001, "join(s0,s1)")
	if examined > 1 {
		t.Fatalf("tiny radius examined %d", examined)
	}
	reg.Unregister(a)
	if reg.Len() != 2 {
		t.Fatalf("Len = %d after unregister", reg.Len())
	}
}

func TestTrueAndCoordLatencyModels(t *testing.T) {
	env, _ := testSetup(t, 18, false)
	truth := TrueLatency{Topo: env.Topo}
	coord := CoordLatency{Env: env}
	if truth.Name() == "" || coord.Name() == "" {
		t.Fatal("empty model names")
	}
	if truth.Latency(0, 0) != 0 {
		t.Fatal("self latency nonzero")
	}
	if coord.Latency(0, 1) < 0 {
		t.Fatal("negative coordinate latency")
	}
	// Coordinate estimates should correlate with truth: mean relative
	// error bounded (loose sanity bound).
	var errSum float64
	var n int
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		a := topology.NodeID(rng.Intn(env.Topo.NumNodes()))
		b := topology.NodeID(rng.Intn(env.Topo.NumNodes()))
		if a == b {
			continue
		}
		tl := truth.Latency(a, b)
		cl := coord.Latency(a, b)
		errSum += math.Abs(tl-cl) / tl
		n++
	}
	if mean := errSum / float64(n); mean > 0.8 {
		t.Fatalf("coordinate latency mean relative error %v too large", mean)
	}
}

func BenchmarkIntegratedOptimize4Way(b *testing.B) {
	topo := smallTopo(&testing.T{}, 1)
	stats, _ := query.NewCatalog(0.8)
	stubs := topo.StubNodeIDs()
	for i := 0; i < 4; i++ {
		_ = stats.AddStream(query.StreamID(i), stubs[i*3], 100)
	}
	cfg := DefaultEnvConfig(1)
	cfg.UseDHT = false
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := query.Query{ID: 1, Consumer: stubs[len(stubs)-1], Streams: []query.StreamID{0, 1, 2, 3}}
	opt := NewIntegrated(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}
