package exp

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/plan"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
	"github.com/hourglass/sbon/internal/workload"
)

const x1Seed = 11 // seeds X1's topology and workload

// X1Params configures the placement-strategy comparison.
type X1Params struct {
	Scale       Scale
	QueryCounts []int
}

// DefaultX1Params returns the configuration at scale s.
func DefaultX1Params(s Scale) X1Params {
	return X1Params{Scale: s, QueryCounts: []int{5, 10, 20}}
}

// X1 compares placement strategies for the same plans: the paper's
// relaxation placement against random, at-consumer, and at-producer
// baselines, reporting total network usage as the query population grows.
func X1(p X1Params) (*Table, error) {
	t := NewTable("X1 — placement strategies: total network usage (KB·ms/s)",
		"queries", "relaxation", "random", "consumer", "producer", "random/relax", "consumer/relax", "producer/relax")

	for _, count := range p.QueryCounts {
		usages := make(map[string]float64, 4)
		strategies := []optimizer.PlacementStrategy{
			optimizer.RelaxationStrategy{},
			optimizer.RandomStrategy{},
			optimizer.ConsumerStrategy{},
			optimizer.ProducerStrategy{},
		}
		for _, strat := range strategies {
			// Fresh, identically seeded world per strategy so the
			// workloads and topologies coincide exactly.
			topo := genTopo(p.Scale, x1Seed)
			rng := rand.New(rand.NewSource(x1Seed * 7))
			stats, err := workload.GenerateStats(topo, workload.DefaultStreamConfig(), rng)
			if err != nil {
				return nil, err
			}
			qCfg := workload.DefaultQueryConfig()
			qCfg.NumQueries = count
			qCfg.Templates = 0
			queries, err := workload.GenerateQueries(topo, stats, qCfg, rng, 1)
			if err != nil {
				return nil, err
			}
			envCfg := optimizer.DefaultEnvConfig(x1Seed)
			envCfg.UseDHT = false
			env, err := optimizer.NewEnv(topo, stats, envCfg)
			if err != nil {
				return nil, err
			}
			if rs, ok := strat.(optimizer.RelaxationStrategy); ok {
				rs.Mapper = placement.OracleMapper{Source: env}
				strat = rs
			}
			enum := plan.NewEnumerator(stats)
			truth := optimizer.TrueLatency{Topo: topo}
			dep := optimizer.NewDeployment(env, nil)
			for _, q := range queries {
				best, err := enum.Best(q)
				if err != nil {
					return nil, err
				}
				c, err := strat.PlaceCircuit(env, q, best)
				if err != nil {
					return nil, err
				}
				if err := dep.Deploy(c); err != nil {
					return nil, err
				}
			}
			usages[strat.Name()] = dep.TotalUsage(truth)
		}
		rl := usages["relaxation"]
		t.AddRow(count, rl, usages["random"], usages["consumer"], usages["producer"],
			usages["random"]/rl, usages["consumer"]/rl, usages["producer"]/rl)
	}
	t.AddNote("expected shape: relaxation placement clearly below random and at least competitive with the endpoint heuristics at every population size (companion-TR result)")
	return t, nil
}

const x2Seed = 12 // seeds X2's topology and embeddings

// X2Params configures the Vivaldi convergence sweep.
type X2Params struct {
	Scale  Scale
	Rounds []int
}

// DefaultX2Params returns the configuration at scale s.
func DefaultX2Params(s Scale) X2Params {
	return X2Params{Scale: s, Rounds: []int{1, 2, 5, 10, 20, 40, 80}}
}

// X2 measures the Vivaldi embedding's error against update rounds — the
// convergence behaviour the cost space's vector dimensions depend on.
func X2(p X2Params) (*Table, error) {
	topo := genTopo(p.Scale, x2Seed)
	t := NewTable("X2 — Vivaldi convergence (2-D, transit-stub latency matrix)",
		"rounds", "median rel err", "p90 rel err", "mean rel err")
	for _, rounds := range p.Rounds {
		emb, err := vivaldi.Embed(topo.NumNodes(), topo.PairLatency, vivaldi.DefaultConfig(), rounds, 4, rand.New(rand.NewSource(x2Seed)))
		if err != nil {
			return nil, err
		}
		q := emb.Evaluate(topo.PairLatency, 3000, rand.New(rand.NewSource(x2Seed+1)))
		t.AddRow(rounds, q.MedianRelErr, q.P90RelErr, q.MeanRelErr)
	}
	t.AddNote("expected shape: error falls steeply over the first tens of rounds and flattens — coordinates are usable long before full convergence")
	return t, nil
}

const x3Seed = 13 // seeds X3's topology, embeddings and targets

// X3Params configures the mapping-error study.
type X3Params struct {
	Scale   Scale
	Dims    []int
	Targets int
}

// DefaultX3Params returns the configuration at scale s.
func DefaultX3Params(s Scale) X3Params {
	return X3Params{Scale: s, Dims: []int{2, 3, 4, 5}, Targets: 100}
}

// X3 measures Hilbert-DHT mapping error against cost-space
// dimensionality: more vector dimensions dilute the curve's locality
// (fixed 64-bit keys buy fewer bits per dimension), so the walk must
// inspect more candidates for the same accuracy.
func X3(p X3Params) (*Table, error) {
	topo := genTopo(p.Scale, x3Seed)
	t := NewTable("X3 — Hilbert-DHT mapping error vs cost-space dimensionality",
		"vector dims", "bits/dim", "mean err ratio (dht/oracle)", "p95 err ratio", "mean lookup hops")
	for _, d := range p.Dims {
		ratios, hops, bits, err := x3ForDims(topo, d, x3Seed, p.Targets)
		if err != nil {
			return nil, err
		}
		mean := meanOf(ratios) // summed in draw order, before the sort
		sort.Float64s(ratios)
		t.AddRow(d, bits, mean, pct(ratios, 0.95), meanOf(hops))
	}
	t.AddNote("expected shape: error ratio stays close to 1 in low dimensions and degrades gracefully as bits/dim shrink (paper: error magnitude depends on the dimensionality of the cost space)")
	return t, nil
}

// x3ForDims returns the error ratios and lookup hops of targets mapped
// in a dims-vector cost space, in draw order, and the frame's bits per
// dimension.
func x3ForDims(topo *topology.Topology, dims int, seed int64, targets int) ([]float64, []float64, uint, error) {
	rng := rand.New(rand.NewSource(seed * int64(dims+1)))
	vcfg := vivaldi.DefaultConfig()
	vcfg.Dims = dims
	emb, err := vivaldi.Embed(topo.NumNodes(), topo.PairLatency, vcfg, 30, 4, rng)
	if err != nil {
		return nil, nil, 0, err
	}
	space := &costspace.Space{
		VectorDims: dims,
		Scalars:    []costspace.ScalarDim{{Name: "cpu-load", Weight: costspace.SquaredWeight{Scale: 100}}},
	}
	env, err := newAdhocCatalog(topo, space, emb.Coords, rng)
	if err != nil {
		return nil, nil, 0, err
	}
	mapper := placement.DHTMapper{Catalog: env.catalog, Candidates: 8, MaxScan: 48}
	oracle := placement.OracleMapper{Source: env}

	var ratios, hops []float64
	n := topo.NumNodes()
	for i := 0; i < targets; i++ {
		anchor := emb.Coords[rng.Intn(n)]
		target := make(vivaldi.Coord, dims)
		for k := range target {
			target[k] = anchor[k] + rng.NormFloat64()*3
		}
		dn, stats, err := mapper.MapCoord(topology.NodeID(rng.Intn(n)), target, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		_, ostats, err := oracle.MapCoord(0, target, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		if ostats.Error > 1e-9 {
			ratios = append(ratios, space.Distance(space.IdealPoint(target), env.pts[dn])/ostats.Error)
		} else {
			ratios = append(ratios, 1)
		}
		hops = append(hops, float64(stats.LookupHops))
	}
	return ratios, hops, env.catalog.Curve().Bits(), nil
}

const x4Seed = 14 // seeds X4's worlds and their churn

// x4Churn is the load churn X4 applies every step.
var x4Churn = workload.Churn{LoadFraction: 0.25, LoadMax: 0.95}

// X4Params configures the re-optimization-under-churn study.
type X4Params struct {
	Scale   Scale
	Queries int
	Steps   int
}

// DefaultX4Params returns the configuration at scale s.
func DefaultX4Params(s Scale) X4Params { return X4Params{Scale: s, Queries: 12, Steps: 12} }

// X4 measures local re-optimization (§3.3) under load churn: two
// identically seeded worlds evolve under the same dynamics, one with the
// migration controller running each step and one static. Reported per
// step: total load penalty (how hard circuits lean on busy nodes) and
// network usage.
func X4(p X4Params) (*Table, error) {
	run := func(reopt bool) ([]float64, []float64, int, error) {
		qCfg := workload.DefaultQueryConfig()
		qCfg.NumQueries = p.Queries
		w, err := scenario.Build(scenario.Spec{
			Seed:     x4Seed,
			Topology: topoConfig(p.Scale),
			Streams:  workload.DefaultStreamConfig(),
			Queries:  qCfg,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		defer w.Close()
		topo, env, dep := w.Topo, w.Env, w.Deployment
		integ := optimizer.NewIntegrated(env)
		for _, q := range w.Queries {
			res, err := integ.Optimize(q)
			if err != nil {
				return nil, nil, 0, err
			}
			if err := dep.Deploy(res.Circuit); err != nil {
				return nil, nil, 0, err
			}
		}
		co := w.Coordinator()
		truth := optimizer.TrueLatency{Topo: topo}
		churnRng := rand.New(rand.NewSource(x4Seed * 5))
		var penalties, usages []float64
		migrations := 0
		for step := 0; step < p.Steps; step++ {
			workload.ApplyChurn(topo, env, x4Churn, churnRng)
			if reopt {
				r, err := co.Round(nil, nil)
				if err != nil {
					return nil, nil, 0, err
				}
				migrations += r.Sweep.Migrated
			}
			penalties = append(penalties, dep.TotalLoadPenalty())
			usages = append(usages, dep.TotalUsage(truth))
		}
		return penalties, usages, migrations, nil
	}

	penStatic, useStatic, _, err := run(false)
	if err != nil {
		return nil, err
	}
	penReopt, useReopt, migrations, err := run(true)
	if err != nil {
		return nil, err
	}
	t := NewTable("X4 — re-optimization under load churn",
		"step", "load penalty static", "load penalty reopt", "usage static", "usage reopt")
	for i := range penStatic {
		t.AddRow(i+1, penStatic[i], penReopt[i], useStatic[i], useReopt[i])
	}
	t.AddNote("migrations performed by the controller: %d", migrations)
	t.AddNote("mean load penalty: static %.4g vs reopt %.4g; mean usage: static %.4g vs reopt %.4g",
		meanOf(penStatic), meanOf(penReopt), meanOf(useStatic), meanOf(useReopt))
	t.AddNote("expected shape: the re-optimizing system keeps load penalty well below the static one at bounded usage cost (§3.3: \"the best nodes to host a service are consistently used\")")
	return t, nil
}

const x5Seed = 15 // seeds X5's lookups

// X5Params configures the DHT hop-scaling measurement.
type X5Params struct {
	Sizes   []int
	Lookups int
}

// DefaultX5Params returns the configuration, the same at every scale.
func DefaultX5Params(Scale) X5Params {
	return X5Params{Sizes: []int{32, 64, 128, 256, 512, 1024}, Lookups: 300}
}

// X5 measures Chord lookup hops against ring size — the cost of the
// paper's physical-mapping primitive, expected O(log N).
func X5(p X5Params) (*Table, error) {
	t := NewTable("X5 — DHT lookup hops vs ring size", "peers", "mean hops", "max hops", "log2(N)")
	for _, n := range p.Sizes {
		ring := dht.NewRing()
		for i := 0; i < n; i++ {
			if _, err := ring.AddPeer(topology.NodeID(i)); err != nil {
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(x5Seed + int64(n)))
		total, max := 0, 0
		for k := 0; k < p.Lookups; k++ {
			_, hops, err := ring.Lookup(topology.NodeID(rng.Intn(n)), dht.ID(rng.Uint64()))
			if err != nil {
				return nil, err
			}
			total += hops
			if hops > max {
				max = hops
			}
		}
		t.AddRow(n, float64(total)/float64(p.Lookups), max, math.Log2(float64(n)))
	}
	t.AddNote("expected shape: mean hops tracks ~log2(N)/2 — doubling the overlay adds a constant, not a factor")
	return t, nil
}

const x6Seed = 16 // seeds X6's topologies and workloads

// X6Params configures the optimizer-scalability measurement.
type X6Params struct {
	StubSizes []int
}

// DefaultX6Params returns the configuration at scale s.
func DefaultX6Params(s Scale) X6Params {
	p := X6Params{StubSizes: []int{1, 3, 6, 12}}
	if s == Small {
		p.StubSizes = []int{1, 3}
	}
	return p
}

// X6 measures optimization time against network size: the cost-space
// integrated optimizer (relaxation + mapping per candidate plan) versus
// exhaustive placement enumeration of the best plan over all nodes —
// the §4 claim that "enumeration-based query optimization performs
// poorly in a large-scale system".
func X6(p X6Params) (*Table, error) {
	t := NewTable("X6 — optimizer scalability vs network size (3-way join)",
		"nodes", "integrated ms", "exhaustive ms", "speedup", "usage integrated", "usage exhaustive", "usage gap %")
	for _, stubs := range p.StubSizes {
		cfg := topology.DefaultConfig()
		cfg.StubNodes = stubs
		topo := topology.MustGenerate(cfg, rand.New(rand.NewSource(x6Seed)))
		rng := rand.New(rand.NewSource(x6Seed * 9))
		sCfg := workload.DefaultStreamConfig()
		sCfg.NumStreams = 3
		stats, err := workload.GenerateStats(topo, sCfg, rng)
		if err != nil {
			return nil, err
		}
		envCfg := optimizer.DefaultEnvConfig(x6Seed)
		envCfg.UseDHT = false
		// Zero background load: the exhaustive oracle optimizes usage
		// only, so load-avoidance by the cost-space mapper would show up
		// as an artificial usage gap.
		envCfg.MaxBackgroundLoad = 1e-9
		env, err := optimizer.NewEnv(topo, stats, envCfg)
		if err != nil {
			return nil, err
		}
		stubsIDs := topo.StubNodeIDs()
		q := query.Query{
			ID:       1,
			Consumer: stubsIDs[rng.Intn(len(stubsIDs))],
			Streams:  []query.StreamID{0, 1, 2},
		}
		truth := optimizer.TrueLatency{Topo: topo}
		mapper := placement.OracleMapper{Source: env}

		// Both optimizers select under the true-latency model so the
		// usage gap isolates the placement machinery (continuous
		// relaxation + nearest-node mapping vs discrete optimum) from
		// coordinate-estimation error.
		start := time.Now()
		integ, err := (&optimizer.Integrated{Env: env, Mapper: mapper, Model: truth}).Optimize(q)
		if err != nil {
			return nil, err
		}
		tInt := time.Since(start)

		enum := plan.NewEnumerator(stats)
		best, err := enum.Best(q)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		exC, err := (optimizer.ExhaustiveStrategy{Model: truth}).PlaceCircuit(env, q, best)
		if err != nil {
			return nil, err
		}
		tExh := time.Since(start)

		ui := integ.Circuit.NetworkUsage(truth)
		ue := exC.NetworkUsage(truth)
		gap := 100 * (ui - ue) / ue
		t.AddRow(topo.NumNodes(),
			float64(tInt.Microseconds())/1000, float64(tExh.Microseconds())/1000,
			float64(tExh)/float64(tInt), ui, ue, gap)
	}
	t.AddNote("expected shape: exhaustive time grows ~quadratically with node count while integrated stays near-flat; the usage gap (continuous relaxation on imperfect coordinates vs the discrete optimum) stays a bounded factor — the trade §4 argues for")
	return t, nil
}

const x7Seed = 17 // run r of X7 uses seed x7Seed + r

// X7Params configures the spring-vs-Weiszfeld placement ablation.
type X7Params struct {
	Scale Scale
	Runs  int
}

// DefaultX7Params returns the configuration at scale s.
func DefaultX7Params(s Scale) X7Params { return X7Params{Scale: s, Runs: 12} }

// X7 compares the paper's quadratic spring relaxation against direct
// Weiszfeld minimization of Σ rate·latency for virtual placement: how
// much does the quadratic surrogate cost in final measured usage?
func X7(p X7Params) (*Table, error) {
	t := NewTable("X7 — virtual placement objective: spring (rate·d²) vs Weiszfeld (rate·d)",
		"run", "usage spring", "usage weiszfeld", "weiszfeld/spring")
	var ratios []float64
	for run := 1; run <= p.Runs; run++ {
		seed := x7Seed + int64(run)
		topo := genTopo(p.Scale, seed)
		rng := rand.New(rand.NewSource(seed * 21))
		stats, err := workload.GenerateStats(topo, workload.DefaultStreamConfig(), rng)
		if err != nil {
			return nil, err
		}
		qCfg := workload.DefaultQueryConfig()
		qCfg.NumQueries = 1
		qCfg.StreamsPerQuery = [2]int{4, 4}
		qCfg.Templates = 0
		qs, err := workload.GenerateQueries(topo, stats, qCfg, rng, 1)
		if err != nil {
			return nil, err
		}
		envCfg := optimizer.DefaultEnvConfig(seed)
		envCfg.UseDHT = false
		env, err := optimizer.NewEnv(topo, stats, envCfg)
		if err != nil {
			return nil, err
		}
		mapper := placement.OracleMapper{Source: env}
		truth := optimizer.TrueLatency{Topo: topo}

		spring, err := (&optimizer.Integrated{Env: env, Mapper: mapper, Placer: placement.Relaxation{}}).Optimize(qs[0])
		if err != nil {
			return nil, err
		}
		weisz, err := (&optimizer.Integrated{Env: env, Mapper: mapper, Placer: placement.Weiszfeld{}}).Optimize(qs[0])
		if err != nil {
			return nil, err
		}
		us := spring.Circuit.NetworkUsage(truth)
		uw := weisz.Circuit.NetworkUsage(truth)
		ratios = append(ratios, uw/us)
		t.AddRow(run, us, uw, uw/us)
	}
	t.AddNote("mean weiszfeld/spring usage ratio = %.4f", meanOf(ratios))
	t.AddNote("expected shape: ratio ≈ 1 — after physical mapping quantizes to real nodes, the quadratic surrogate gives up little, which is why the paper's simpler spring model suffices")
	return t, nil
}

// adhocSource is a minimal placement.NodeSource + DHT catalog for
// experiments that need cost spaces outside the standard Env (e.g. X3's
// dimensionality sweep).
type adhocSource struct {
	space   *costspace.Space
	pts     []costspace.Point
	ix      *costindex.Index
	catalog *dht.Catalog
}

func (a *adhocSource) Space() *costspace.Space { return a.space }

func (a *adhocSource) CostIndex() *costindex.Index { return a.ix }

// newAdhocCatalog publishes random-load points for every topology node
// into a fresh Hilbert-DHT catalog over the given space.
func newAdhocCatalog(topo *topology.Topology, space *costspace.Space, coords []vivaldi.Coord, rng *rand.Rand) (*adhocSource, error) {
	n := topo.NumNodes()
	a := &adhocSource{space: space, pts: make([]costspace.Point, n)}
	for i := 0; i < n; i++ {
		a.pts[i] = space.NewPoint(coords[i], []float64{rng.Float64() * 0.4})
	}
	a.ix = costindex.Build(space, a.pts, 0)
	cat, err := dht.NewNodeCatalog(space, a.pts)
	if err != nil {
		return nil, err
	}
	a.catalog = cat
	return a, nil
}
