package main

import (
	"math"

	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// corruptReference makes checkAgainstSequential compare every sampled
// result with the reference of the *next* query. Only the harness's own
// test sets it, to show that a wrong reference is noticed.
var corruptReference bool

// sameResult reports whether two optimizations chose bit-identical
// circuits: same plan, same hosts, same virtual coordinates, same
// estimated usage.
func sameResult(a, b *optimizer.Result) bool {
	if a == nil || b == nil || a.Circuit == nil || b.Circuit == nil {
		return false
	}
	if math.Float64bits(a.EstimatedUsage) != math.Float64bits(b.EstimatedUsage) {
		return false
	}
	ca, cb := a.Circuit, b.Circuit
	if len(ca.Services) != len(cb.Services) || len(ca.Links) != len(cb.Links) {
		return false
	}
	for i, sa := range ca.Services {
		sb := cb.Services[i]
		if sa.Node != sb.Node || sa.Pinned != sb.Pinned || sa.Signature != sb.Signature || len(sa.Virtual) != len(sb.Virtual) {
			return false
		}
		for d := range sa.Virtual {
			if math.Float64bits(sa.Virtual[d]) != math.Float64bits(sb.Virtual[d]) {
				return false
			}
		}
	}
	for i, la := range ca.Links {
		if la != cb.Links[i] {
			return false
		}
	}
	return true
}

// checkAgainstSequential compares up to sample batch results, evenly
// spaced over the batch, with opt's sequential Optimize of the same
// query; opt runs on a snapshot of the same environment with the mapper
// the batch used. Each comparison is one attempted operation.
func checkAgainstSequential(rep *report, opt *optimizer.Integrated, queries []query.Query, results []optimizer.Result, sample int) {
	if sample > len(results) {
		sample = len(results)
	}
	for k := 0; k < sample; k++ {
		i := k * len(results) / sample
		ref := i
		if corruptReference {
			ref = (i + 1) % len(queries)
		}
		want, err := opt.Optimize(queries[ref])
		rep.ops(1)
		if err != nil {
			rep.fail("sequential optimize of query %d: %v", queries[ref].ID, err)
			continue
		}
		if !sameResult(&results[i], want) {
			rep.fail("batch result %d (query %d) differs from sequential Optimize", i, queries[i].ID)
		}
	}
}

// wideDHT is the DHT mapper with its ring walk bounded by the ring
// itself instead of the default 32 peers. The walk still stops as soon
// as it has seen enough entries, so it costs more only where the
// default would have found nothing and failed. The benchmark uses it
// wherever it supplies the mapper: its own optimizer pool, the repair
// loop and the two-step reference.
func wideDHT(cat *dht.Catalog) placement.Mapper {
	return placement.DHTMapper{Catalog: cat, MaxScan: 1 << 20}
}

// circuitsOf collects the circuits of the first n results; a query that
// failed (and was counted) has none.
func circuitsOf(results []optimizer.Result, n int) []*optimizer.Circuit {
	if n > len(results) {
		n = len(results)
	}
	out := make([]*optimizer.Circuit, 0, n)
	for i := 0; i < n; i++ {
		if c := results[i].Circuit; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// trueUsage sums the circuits' network usage under true latencies.
func trueUsage(topo *topology.Topology, cs []*optimizer.Circuit) float64 {
	truth := optimizer.TrueLatency{Topo: topo}
	var sum float64
	for _, c := range cs {
		sum += c.NetworkUsage(truth)
	}
	return sum
}

// centralUsage is the usage the same plans would have with every
// movable operator on the consumer's node — the ship-everything-to-the-
// consumer baseline. It is computed here from the topology alone, so a
// change to the placement machinery cannot move the yardstick.
func centralUsage(topo *topology.Topology, cs []*optimizer.Circuit) float64 {
	var sum float64
	for _, c := range cs {
		at := func(i int) topology.NodeID {
			if s := c.Services[i]; s.Pinned || s.Plan == nil {
				return s.Node
			}
			return c.Query.Consumer
		}
		for _, l := range c.Links {
			if !l.Shared {
				sum += l.Rate * topo.Latency(at(l.From), at(l.To))
			}
		}
	}
	return sum
}

// usageMetrics sets the placement-quality metrics for the circuits a
// workload produced and folds them, and the placements, into the run's
// fingerprint. usage_vs_central is end to end: the circuits' true-
// latency usage over the same plans with every movable operator at the
// consumer. optimizer.usage_ratio, traced runs only, is the paper's
// Figure 1 comparison: the same usage over what the two-step optimizer
// gets for the same queries on the same environment. Both optimizers
// share the placement machinery, so that ratio cannot see a change that
// worsens every placement alike (and it is 1 by construction where no
// query has more than two streams and so more than one plan);
// usage_vs_central can.
func usageMetrics(c *ctx, env *optimizer.Env, cs []*optimizer.Circuit) {
	rep := c.rep
	used := trueUsage(env.Topo, cs)
	rep.set("usage_vs_central", ratio(used, centralUsage(env.Topo, cs)))
	rep.fp.float("usage_vs_central", rep.values["usage_vs_central"])
	rep.fp.circuits(cs)
	if !c.tracing() {
		return
	}
	two := optimizer.NewTwoStep(env.Freeze())
	if cat := env.Catalog(); cat != nil {
		two.Mapper = wideDHT(cat) // the reference must not fail where the workload did not
	}
	var base []*optimizer.Circuit
	for _, circuit := range cs {
		res, err := two.Optimize(circuit.Query)
		rep.ops(1)
		if err != nil {
			rep.fail("two-step optimize of query %d: %v", circuit.Query.ID, err)
			continue
		}
		base = append(base, res.Circuit)
	}
	rep.set("optimizer.usage_ratio", ratio(used, trueUsage(env.Topo, base)))
}

// resultStats fills the optimizer's exact per-layer counts from a
// batch's results.
func resultStats(rep *report, results []optimizer.Result) {
	var hits, plans, mapped int
	var mapErr float64
	for i := range results {
		if results[i].Circuit == nil {
			continue
		}
		if results[i].FromCache {
			hits++
		}
		plans += results[i].PlansConsidered
		for _, s := range results[i].Circuit.Services {
			if !s.Pinned && s.Plan != nil {
				mapped++
			}
		}
		mapErr += results[i].MapStats.Error
	}
	n := float64(len(results))
	rep.set("optimizer.cache_hit_ratio", ratio(float64(hits), n))
	rep.set("plan.plans_per_query", ratio(float64(plans), n))
	rep.set("placement.map_error_ms_mean", ratio(mapErr, float64(mapped)))
}
