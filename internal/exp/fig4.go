package exp

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/workload"
)

// Fig4Params configures the Figure 4 reproduction.
type Fig4Params struct {
	Scale Scale
	Seed  int64
	// Background is the number of circuits deployed before probing.
	Background int
	// Probes is the number of new queries optimized at each radius.
	Probes int
	// Radii are the pruning radii r to sweep (cost-space units ≈ ms);
	// +Inf means unpruned full multi-query optimization.
	Radii []float64
}

// DefaultFig4Params returns the full-scale configuration.
func DefaultFig4Params() Fig4Params {
	return Fig4Params{
		Scale:      Full,
		Seed:       4,
		Background: 30,
		Probes:     15,
		Radii:      []float64{0, 10, 25, 50, 100, math.Inf(1)},
	}
}

// Fig4 reproduces Figure 4: multi-query optimization pruned to a radius
// r in the cost space. A background population of circuits is deployed
// (template-skewed, so identical sub-plans exist); then new queries are
// optimized with varying r. Reported per radius: how many registered
// service instances the optimizer had to examine (its work — the
// quantity pruning bounds), how often it found a reusable service, and
// the marginal network usage of the circuits it built.
func Fig4(p Fig4Params) (*Table, error) {
	orDefault(&p.Background, DefaultFig4Params().Background)
	orDefault(&p.Probes, DefaultFig4Params().Probes)
	orDefaultList(&p.Radii, DefaultFig4Params().Radii)
	topo := genTopo(p.Scale, p.Seed)
	rng := rand.New(rand.NewSource(p.Seed * 13))

	streamCfg := workload.DefaultStreamConfig()
	streamCfg.Placement = workload.Clustered
	if p.Scale == Small {
		streamCfg.NumStreams = 8
	}
	stats, err := workload.GenerateStats(topo, streamCfg, rng)
	if err != nil {
		return nil, err
	}
	envCfg := optimizer.DefaultEnvConfig(p.Seed)
	envCfg.UseDHT = false // oracle mapping keeps the sweep deterministic and fast
	env, err := optimizer.NewEnv(topo, stats, envCfg)
	if err != nil {
		return nil, err
	}
	mapper := placement.OracleMapper{Source: env}
	truth := optimizer.TrueLatency{Topo: topo}

	// Background and probe queries are drawn in one batch so they share
	// the same Zipf-skewed template pool — the sharing §3.4 exploits.
	qCfg := workload.DefaultQueryConfig()
	qCfg.NumQueries = p.Background + p.Probes
	qCfg.Templates = 6
	qCfg.TemplateSkew = 1.4
	qCfg.FilterProb = 0 // identical sub-plans share more readily
	qCfg.AggregateProb = 0
	all, err := workload.GenerateQueries(topo, stats, qCfg, rng, 1)
	if err != nil {
		return nil, err
	}
	background, probes := all[:p.Background], all[p.Background:]

	reg := optimizer.NewRegistry()
	dep := optimizer.NewDeployment(env, reg)
	integ := &optimizer.Integrated{Env: env, Mapper: mapper}
	for _, q := range background {
		res, err := integ.Optimize(q)
		if err != nil {
			return nil, err
		}
		if err := dep.Deploy(res.Circuit); err != nil {
			return nil, err
		}
	}

	t := NewTable(fmt.Sprintf("Figure 4 — radius-pruned multi-query optimization (%d background circuits, %d registered services)",
		dep.NumDeployed(), reg.Len()),
		"radius r", "instances examined (mean)", "probes reusing >=1 service %",
		"reused services (mean)", "marginal usage (mean)", "usage vs r=0 %")

	var baseUsage float64
	for _, r := range p.Radii {
		// Selection uses the true-latency model so the radius sweep
		// isolates pruning behaviour from coordinate-estimation error
		// (with an estimator model, a reuse candidate picked as cheaper
		// could measure slightly worse).
		mq := &optimizer.MultiQuery{Env: env, Registry: reg, Radius: r, Mapper: mapper, Model: truth}
		var examined, reusedSvcs, usage float64
		reusingProbes := 0
		for _, q := range probes {
			res, err := mq.Optimize(q)
			if err != nil {
				return nil, err
			}
			examined += float64(res.InstancesExamined)
			reusedSvcs += float64(res.ReusedServices)
			if res.ReusedServices > 0 {
				reusingProbes++
			}
			usage += res.Circuit.NetworkUsage(truth)
		}
		examined /= float64(len(probes))
		reusedSvcs /= float64(len(probes))
		usage /= float64(len(probes))
		if r == 0 {
			baseUsage = usage
		}
		rel := 100.0
		if baseUsage > 0 {
			rel = 100 * usage / baseUsage
		}
		label := fmt.Sprintf("%.0f", r)
		if math.IsInf(r, 1) {
			label = "inf (full MQO)"
		}
		t.AddRow(label, examined, 100*float64(reusingProbes)/float64(len(probes)), reusedSvcs, usage, rel)
	}
	t.AddNote("expected shape: examined instances grow with r (optimizer work); reuse and usage savings saturate at moderate r — a small region already captures most of full MQO's benefit (§3.4)")
	return t, nil
}
