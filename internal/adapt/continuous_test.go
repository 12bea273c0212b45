package adapt

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// runContinuous drives one full continuous-adaptation run on a virtual
// clock: warm-up, a deterministic schedule of mid-run load drifts, and
// a stop signal, returning the aggregated stats and final placements.
func runContinuous(t *testing.T, seed int64) (RunStats, map[query.QueryID][]topology.NodeID) {
	t.Helper()
	f := newFixture(t, seed, 5)
	f.co.Threshold = 0.3 // settle to a fixed point between drifts
	f.clk.Sleep(time.Second)

	const interval = 500 * time.Millisecond
	var targets []topology.NodeID
	for _, run := range f.runs {
		for _, s := range run.Circuit.UnpinnedServices() {
			targets = append(targets, s.Node)
		}
	}
	if len(targets) == 0 {
		t.Fatal("fixture deployed no unpinned services")
	}
	// Drift a hosting node's load mid-interval, one per round: the
	// loop's next sweep sees exactly one fresh delta-log entry.
	for i := 0; i < 4; i++ {
		n := targets[(i*3)%len(targets)]
		f.clk.AfterFunc(time.Duration(i)*interval+interval/2, func() {
			f.env.SetBackgroundLoad(n, 4.0)
		})
	}
	stop := make(chan struct{})
	f.clk.AfterFunc(4*time.Second, func() { close(stop) })

	rs, err := f.co.Run(nil, interval, stop)
	if err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, f)
	requireNoLossCounters(t, f)

	placements := make(map[query.QueryID][]topology.NodeID)
	for _, run := range f.runs {
		c := run.Circuit
		nodes := make([]topology.NodeID, len(c.Services))
		for i, s := range c.Services {
			nodes[i] = s.Node
		}
		placements[c.Query.ID] = nodes
	}
	return rs, placements
}

// TestRunContinuousDeterministic pins the continuous loop's virtual-time
// contract: two same-seed runs — live data plane, mid-run load drifts,
// incremental sweeps — produce identical statistics (settle timings
// included) and identical final placements. It also checks the loop's
// delta economics: exactly the priming round is a full sweep, every
// drift-response round plans from the delta log.
func TestRunContinuousDeterministic(t *testing.T) {
	rs1, p1 := runContinuous(t, 61)
	rs2, p2 := runContinuous(t, 61)
	if rs1 != rs2 {
		t.Fatalf("same-seed runs diverge:\n run1 %+v\n run2 %+v", rs1, rs2)
	}
	for id, nodes := range p1 {
		for i, n := range nodes {
			if p2[id][i] != n {
				t.Fatalf("same-seed final placements diverge: q%d service %d on %d vs %d", id, i, n, p2[id][i])
			}
		}
	}
	if rs1.Sweeps < 2 {
		t.Fatalf("loop completed %d sweeps, want several", rs1.Sweeps)
	}
	if rs1.FullSweeps != 1 {
		t.Fatalf("loop ran %d full sweeps, want exactly the priming one", rs1.FullSweeps)
	}
}

// TestRunQuiescesWhenClean pins the zero-delta fixed point: once the
// deployment settles and nothing drifts, every further round consumes
// an empty delta log and evaluates nothing.
func TestRunQuiescesWhenClean(t *testing.T) {
	f := newFixture(t, 67, 5)
	f.co.Threshold = 0.3
	f.clk.Sleep(time.Second)

	stop := make(chan struct{})
	f.clk.AfterFunc(4*time.Second, func() { close(stop) })
	rs, err := f.co.Run(nil, 500*time.Millisecond, stop)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Sweeps < 3 {
		t.Fatalf("loop completed %d sweeps, want several", rs.Sweeps)
	}
	last := rs.Last
	if last.FullSweep || last.DirtyNodes != 0 || last.AffectedCircuits != 0 || last.ServicesEvaluated != 0 || last.Planned != 0 {
		t.Fatalf("final round of an undisturbed loop is not quiescent: %+v", last)
	}
	requireConsistent(t, f)
	requireNoLossCounters(t, f)
}
