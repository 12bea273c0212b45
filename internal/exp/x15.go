package exp

import (
	"fmt"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/workload"
)

const (
	x15Seed = 31 // seeds X15's world
	// x15Streams is the published stream population.
	x15Streams = 16
)

// x15DeltaFractions are the per-round drift sizes: before each re-plan,
// this fraction of nodes gets a fresh background load, and the round
// compares a full sweep against the delta-driven incremental one. The
// last (0.30) exceeds the re-optimizer's FullSweepFraction,
// demonstrating the graceful fallback.
var x15DeltaFractions = []float64{0.005, 0.01, 0.02, 0.05, 0.30}

// X15Params configures the incremental re-planning scenario.
type X15Params struct {
	// StubNodes is the per-stub-domain node count; 21 gives the
	// 1024-node overlay.
	StubNodes int
	Queries   int
}

// DefaultX15Params returns the configuration at scale s: at Full, the
// 1024-node overlay.
func DefaultX15Params(s Scale) X15Params {
	p := X15Params{StubNodes: 21, Queries: 200}
	if s == Small {
		p.StubNodes = 5 // 256 nodes
		p.Queries = 40
	}
	return p
}

// X15 measures what incremental re-planning buys: 200 circuits deployed
// on the 1024-node overlay, then one re-planning round per delta size.
// Each round drifts the background load of a fraction of nodes and runs
// both a full sweep (every circuit re-placed, re-mapped, re-costed) and
// PlanIncremental (only circuits the delta log can affect). The two
// plans must be bit-identical — the incremental planner's contract — so
// the only difference is work: the services-evaluated ratio is the
// speedup continuous adaptation gets per round. Small deltas must show
// an order-of-magnitude reduction; a delta above FullSweepFraction must
// degenerate to a full sweep rather than track a log bigger than the
// overlay.
func X15(p X15Params) (*Table, error) {
	wallStart := time.Now()

	// Oracle mapping: the incremental equivalence contract's regime.
	w, err := scenario.Build(scenario.Spec{
		Seed:     x15Seed,
		Topology: stubTopology(p.StubNodes),
		Streams:  streamsOf(x15Streams),
		Queries:  queriesOf(p.Queries, 2, 3),
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo, env, dep := w.Topo, w.Env, w.Deployment
	results, err := optimizer.OptimizeBatch(env, w.Queries, optimizer.BatchOptions{})
	if err != nil {
		return nil, err
	}
	for i := range results {
		if err := dep.Deploy(results[i].Circuit); err != nil {
			return nil, err
		}
	}

	ro := optimizer.NewReoptimizer(dep)
	ro.Mapper = placement.OracleMapper{Source: env}
	// A generous hysteresis margin: the sweep's cost criterion charges a
	// service's load to its current host but not yet to the candidate,
	// so heavily loaded services can ping-pong between near-equal hosts
	// under a tight threshold. The wide margin makes the workload settle,
	// which is what lets the quiescent-round cost (zero circuits
	// re-planned) show up in the table.
	ro.ImprovementThreshold = 0.35
	apply := func(plan optimizer.MigrationPlan) error {
		for _, m := range plan.Moves {
			tk, err := dep.BeginMigration(m)
			if err != nil {
				return err
			}
			if err := tk.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	// Prime the delta-log watermark (by contract the first incremental
	// call is a full sweep) and settle any initial moves so the rounds
	// below measure drift response, not leftover deployment slack.
	for i := 0; ; i++ {
		plan, _, err := ro.PlanIncremental()
		if err != nil {
			return nil, err
		}
		if err := apply(plan); err != nil {
			return nil, err
		}
		if len(plan.Moves) == 0 {
			break
		}
		if i > 20 {
			return nil, fmt.Errorf("x15: initial deployment did not settle")
		}
	}

	t := NewTable("X15 — incremental re-planning vs full sweeps under load drift",
		"delta %", "dirty nodes", "affected circuits", "evaluated full", "evaluated incr", "speedup", "full sweep", "moves")
	var speedupAt1pct float64
	for _, f := range x15DeltaFractions {
		w.Drift(workload.Churn{LoadFraction: f, LoadMax: 0.4})
		full, err := ro.Plan()
		if err != nil {
			return nil, err
		}
		inc, st, err := ro.PlanIncremental()
		if err != nil {
			return nil, err
		}
		// The equivalence contract is a hard invariant, not a statistic.
		if len(full.Moves) != len(inc.Moves) {
			return nil, fmt.Errorf("x15: delta %.3f: incremental planned %d moves, full sweep %d",
				f, len(inc.Moves), len(full.Moves))
		}
		for i := range full.Moves {
			if full.Moves[i] != inc.Moves[i] {
				return nil, fmt.Errorf("x15: delta %.3f: move %d diverges: %+v vs %+v",
					f, i, inc.Moves[i], full.Moves[i])
			}
		}
		den := inc.ServicesEvaluated
		if den == 0 {
			den = 1
		}
		speedup := float64(full.ServicesEvaluated) / float64(den)
		if f == 0.01 {
			speedupAt1pct = speedup
		}
		t.AddRow(100*f, st.DirtyNodes, st.AffectedCircuits,
			full.ServicesEvaluated, inc.ServicesEvaluated, speedup, st.FullSweep, len(inc.Moves))
		if err := apply(inc); err != nil {
			return nil, err
		}
	}

	t.AddNote("%d nodes, %d circuits; every round's incremental plan was bit-identical to the full sweep's",
		topo.NumNodes(), len(results))
	if speedupAt1pct > 0 {
		t.AddNote("1%%-node drift re-evaluated %.1fx fewer services than the full sweep", speedupAt1pct)
	}
	t.AddHostNote("wall %v for %d full+incremental re-planning rounds",
		time.Since(wallStart).Round(time.Millisecond), len(x15DeltaFractions))
	return t, nil
}
