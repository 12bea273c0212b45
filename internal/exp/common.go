package exp

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/workload"
)

// Scale selects experiment size: Full reproduces the paper's ~600-node
// setting; Small shrinks everything for fast test/CI runs without
// changing the experiment structure.
type Scale int

// Scales.
const (
	Full Scale = iota
	Small
)

// topoConfig returns the transit-stub configuration for a scale.
func topoConfig(s Scale) topology.Config {
	cfg := topology.DefaultConfig() // 592 nodes, the Figure 2 scale
	if s == Small {
		cfg.TransitDomains = 2
		cfg.TransitNodes = 2
		cfg.StubsPerTransit = 2
		cfg.StubNodes = 5 // 4 + 40 = 44 nodes
	}
	return cfg
}

// genTopo builds the scaled topology deterministically from the seed.
func genTopo(s Scale, seed int64) *topology.Topology {
	return topology.MustGenerate(topoConfig(s), rand.New(rand.NewSource(seed)))
}

// orDefault replaces an unset size, count or duration (<= 0) with its
// default, so each Params type states its literals once, in its
// Default function.
func orDefault[T int | float64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// orDefaultList is orDefault for a sweep's list of points.
func orDefaultList[T any](v *[]T, def []T) {
	if len(*v) == 0 {
		*v = def
	}
}

// stubTopology is the paper's transit-stub shape with the given stub
// domain size — the knob the runtime experiments scale by.
func stubTopology(stubNodes int) topology.Config {
	cfg := topology.DefaultConfig()
	cfg.StubNodes = stubNodes
	return cfg
}

// streamsOf sizes the default catalog.
func streamsOf(n int) workload.StreamConfig {
	cfg := workload.DefaultStreamConfig()
	cfg.NumStreams = n
	return cfg
}

// queriesOf sizes a population of minW..maxW-stream joins without
// aggregates: operators whose measured rates the model predicts
// tightly.
func queriesOf(n, minW, maxW int) workload.QueryConfig {
	cfg := workload.DefaultQueryConfig()
	cfg.NumQueries = n
	cfg.StreamsPerQuery = [2]int{minW, maxW}
	cfg.AggregateProb = 0
	return cfg
}

// expEngine is the engine configuration of the scenario experiments: a
// key domain a quarter of the engine's default shrinks join windows
// proportionally, so they fill within the warm-up phase at these tuple
// granularities.
func expEngine(tupleSizeKB float64) stream.EngineConfig {
	return stream.EngineConfig{Keyspace: 250, TupleSizeKB: tupleSizeKB}
}

// circuitsOf lists the circuits of a batch result, in query order.
func circuitsOf(results []optimizer.Result) []*optimizer.Circuit {
	out := make([]*optimizer.Circuit, len(results))
	for i := range results {
		out[i] = results[i].Circuit
	}
	return out
}

// bestMoves selects one adaptation round's migrations from a sweep's
// plan: positive incident-usage gain only, highest gain first, at most
// budget of them. With at most one unpinned operator per 1-2-stream
// circuit the gains are independent and the realized usage drop equals
// their sum exactly.
func bestMoves(plan optimizer.MigrationPlan, budget int) optimizer.MigrationPlan {
	moves := plan.Moves[:0:0]
	for _, m := range plan.Moves {
		if m.UsageGain > 1e-9 {
			moves = append(moves, m)
		}
	}
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].UsageGain > moves[j].UsageGain })
	if len(moves) > budget {
		moves = moves[:budget]
	}
	return optimizer.MigrationPlan{Moves: moves, ServicesEvaluated: plan.ServicesEvaluated}
}

// placementFingerprint hashes a deployment's final circuit table — every
// (query, service index, host) triple in sorted order — so two runs can
// be compared for placement-level bit-identity without dumping the
// table.
func placementFingerprint(dep *optimizer.Deployment) uint64 {
	type row struct {
		q    int
		s    int
		node int
	}
	var rows []row
	for id, c := range dep.Circuits() {
		for i, svc := range c.Services {
			rows = append(rows, row{int(id), i, int(svc.Node)})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].q != rows[j].q {
			return rows[i].q < rows[j].q
		}
		return rows[i].s < rows[j].s
	})
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%d/%d@%d;", r.q, r.s, r.node)
	}
	return h.Sum64()
}

// meanOf returns the arithmetic mean of xs (0 for empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
