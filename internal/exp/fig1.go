package exp

import (
	"fmt"
	"math/rand"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// Fig1Params configures the Figure 1 reproduction.
type Fig1Params struct {
	Scale Scale
	// Seeds is the number of independent topology/placement draws.
	Seeds int
}

// DefaultFig1Params returns the configuration at scale s.
func DefaultFig1Params(s Scale) Fig1Params { return Fig1Params{Scale: s, Seeds: 15} }

// Fig1 reproduces Figure 1: the inefficiency of two-step optimization.
//
// Setup per seed: a 4-way join whose producers sit in two distant stub
// clusters (P1,P2 in one, P3,P4 in another) with a consumer elsewhere —
// the paper's geometry. Pairwise selectivities are set so that the
// network-oblivious rate model marginally prefers the *cross-cluster*
// bushy plan (the paper's "Query Plan 1" trap: "assuming the
// selectivities of the two plans were roughly the same"), so the
// two-step optimizer deploys it. The integrated optimizer places all 15
// candidate join trees in the cost space and sees that the cluster-local
// plan yields a far cheaper circuit.
//
// Reported: network usage (Σ rate·latency, measured on the true
// topology) and consumer latency of both deployed circuits.
func Fig1(p Fig1Params) (*Table, error) {
	t := NewTable("Figure 1 — two-step vs integrated optimization (4-way join, clustered producers)",
		"seed", "two-step plan", "integrated plan", "usage two-step", "usage integrated",
		"usage ratio", "latency two-step", "latency integrated")

	var ratios, latRatios []float64
	wins := 0
	for seed := int64(1); seed <= int64(p.Seeds); seed++ {
		topo := genTopo(p.Scale, seed)
		rng := rand.New(rand.NewSource(seed * 77))
		stats, q, err := fig1Workload(topo, rng)
		if err != nil {
			return nil, err
		}
		cfg := optimizer.DefaultEnvConfig(seed)
		env, err := optimizer.NewEnv(topo, stats, cfg)
		if err != nil {
			return nil, err
		}
		truth := optimizer.TrueLatency{Topo: topo}

		two, err := optimizer.NewTwoStep(env).Optimize(q)
		if err != nil {
			return nil, err
		}
		integ, err := optimizer.NewIntegrated(env).Optimize(q)
		if err != nil {
			return nil, err
		}
		u2 := two.Circuit.NetworkUsage(truth)
		ui := integ.Circuit.NetworkUsage(truth)
		l2 := two.Circuit.ConsumerLatency(truth)
		li := integ.Circuit.ConsumerLatency(truth)
		ratio := u2 / ui
		ratios = append(ratios, ratio)
		latRatios = append(latRatios, l2/li)
		if ui < u2 {
			wins++
		}
		t.AddRow(seed, two.Circuit.Plan.String(), integ.Circuit.Plan.String(), u2, ui, ratio, l2, li)
	}
	t.AddNote("mean usage ratio (two-step / integrated) = %.3f; integrated strictly cheaper in %d/%d seeds",
		meanOf(ratios), wins, p.Seeds)
	t.AddNote("mean consumer-latency ratio = %.3f", meanOf(latRatios))
	t.AddNote("expected shape: ratio > 1 on most seeds — the rate-optimal plan decomposes across clusters and pays long-haul links (paper Fig. 1)")
	return t, nil
}

// fig1Workload builds the clustered 4-producer catalog and query.
// Streams 0,1 share a stub domain; streams 2,3 share a distant one; the
// consumer sits in a third domain. Selectivities make the cross-cluster
// bushy plan {0,2|1,3} the rate-model optimum by a slim margin.
func fig1Workload(topo *topology.Topology, rng *rand.Rand) (*query.Catalog, query.Query, error) {
	nd := topo.NumStubDomains()
	if nd < 3 {
		return nil, query.Query{}, fmt.Errorf("exp: fig1 needs >= 3 stub domains, have %d", nd)
	}
	// Pick three distinct domains spread across the domain index space
	// (domains are grouped by transit node, so distant indices tend to be
	// distant in latency).
	a := rng.Intn(nd / 3)
	b := nd/3 + rng.Intn(nd/3)
	c := 2*nd/3 + rng.Intn(nd-2*nd/3)
	da, db, dc := topo.StubDomainMembers(a), topo.StubDomainMembers(b), topo.StubDomainMembers(c)

	stats, err := query.NewCatalog(1.0)
	if err != nil {
		return nil, query.Query{}, err
	}
	producers := []topology.NodeID{
		da[rng.Intn(len(da))], da[rng.Intn(len(da))],
		db[rng.Intn(len(db))], db[rng.Intn(len(db))],
	}
	for i, prod := range producers {
		if err := stats.AddStream(query.StreamID(i), prod, 100); err != nil {
			return nil, query.Query{}, err
		}
	}
	// Cross-cluster pairs slightly more selective: the rate model prefers
	// joining 0⋈2 and 1⋈3 first, which the network hates.
	if err := stats.SetPairSelectivity(0, 2, 0.95); err != nil {
		return nil, query.Query{}, err
	}
	if err := stats.SetPairSelectivity(1, 3, 0.95); err != nil {
		return nil, query.Query{}, err
	}
	q := query.Query{
		ID:       1,
		Consumer: dc[rng.Intn(len(dc))],
		Streams:  []query.StreamID{0, 1, 2, 3},
	}
	return stats, q, nil
}

// fig1Seed is one seed's Figure 1 setup for X9 and X10: the workload on
// an env without a DHT, and the circuits two-step and the integrated
// optimizer plan for it with oracle mapping on true latencies.
type fig1Seed struct {
	env        *optimizer.Env
	q          query.Query
	truth      optimizer.TrueLatency
	mapper     placement.OracleMapper
	two, integ *optimizer.Result
}

func newFig1Seed(scale Scale, seed int64) (*fig1Seed, error) {
	topo := genTopo(scale, seed)
	stats, q, err := fig1Workload(topo, rand.New(rand.NewSource(seed*77)))
	if err != nil {
		return nil, err
	}
	cfg := optimizer.DefaultEnvConfig(seed)
	cfg.UseDHT = false
	env, err := optimizer.NewEnv(topo, stats, cfg)
	if err != nil {
		return nil, err
	}
	s := &fig1Seed{env: env, q: q, truth: optimizer.TrueLatency{Topo: topo}, mapper: placement.OracleMapper{Source: env}}
	if s.two, err = (&optimizer.TwoStep{Env: env, Mapper: s.mapper, Model: s.truth}).Optimize(q); err != nil {
		return nil, err
	}
	if s.integ, err = (&optimizer.Integrated{Env: env, Mapper: s.mapper, Model: s.truth}).Optimize(q); err != nil {
		return nil, err
	}
	return s, nil
}
