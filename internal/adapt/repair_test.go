package adapt

import (
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// operatorVictim picks a node that hosts at least one movable operator
// and no pinned service of any circuit — killing it must be fully
// repairable.
func operatorVictim(t *testing.T, f *fixture) topology.NodeID {
	t.Helper()
	pinned := map[topology.NodeID]bool{}
	for _, run := range f.runs {
		for _, s := range run.Circuit.Services {
			if s.Pinned {
				pinned[s.Node] = true
			}
		}
	}
	victim := topology.NodeID(-1)
	for _, run := range f.runs {
		for _, s := range run.Circuit.UnpinnedServices() {
			if !pinned[s.Node] {
				victim = s.Node
			}
		}
	}
	if victim < 0 {
		t.Fatal("no operator host free of pinned services; adjust the seed")
	}
	return victim
}

func TestRepairMovesServicesOffDeadNode(t *testing.T) {
	f := newFixture(t, 71, 4)
	f.clk.Sleep(2 * time.Second)
	victim := operatorVictim(t, f)

	f.net.SetNodeDown(victim, true)
	f.clk.Sleep(time.Second) // undetected outage: tuples drop at the corpse
	before := make([]int, len(f.runs))
	for i, run := range f.runs {
		before[i] = run.Measure().TuplesOut
	}

	st, err := f.co.repair([]topology.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadNodes != 1 || st.Repaired == 0 || st.DataPlane == 0 {
		t.Fatalf("repair stats %+v, want dead=1 and data-plane repairs", st)
	}
	if st.CancelledCircuits != 0 {
		t.Fatalf("repair cancelled %d circuits off a pure operator host", st.CancelledCircuits)
	}
	if !f.co.Exclude[victim] {
		t.Fatal("dead node not excluded from future placement")
	}
	for id, c := range f.co.Dep.Circuits() {
		for i, s := range c.Services {
			if s.Node == victim {
				t.Fatalf("q%d service %d still placed on the dead node", id, i)
			}
		}
	}
	requireConsistent(t, f)

	f.clk.Sleep(2 * time.Second)
	resumed := false
	for i, run := range f.runs {
		if run.Measure().TuplesOut > before[i] {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no circuit resumed delivery after repair")
	}
	if v := f.net.Metrics.Counter("msgs.down_dropped").Value(); v == 0 {
		t.Fatal("a 1s outage dropped nothing — the scenario did not exercise loss")
	}
}

func TestRepairCancelsCircuitWithDeadConsumer(t *testing.T) {
	f := newFixture(t, 72, 4)
	f.clk.Sleep(time.Second)
	victim := f.runs[0].Circuit.Query.Consumer
	deployed := f.co.Dep.NumDeployed()

	f.net.SetNodeDown(victim, true)
	st, err := f.co.repair([]topology.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if st.CancelledCircuits == 0 {
		t.Fatalf("repair stats %+v: circuit with a dead consumer not cancelled", st)
	}
	if _, ok := f.co.Dep.Circuit(f.runs[0].Circuit.Query.ID); ok {
		t.Fatal("doomed circuit still deployed")
	}
	if got := f.co.Dep.NumDeployed(); got != deployed-st.CancelledCircuits {
		t.Fatalf("NumDeployed = %d after cancelling %d of %d", got, st.CancelledCircuits, deployed)
	}
	// Survivors keep a consistent control/data plane and none of their
	// services sit on the corpse.
	for id, c := range f.co.Dep.Circuits() {
		for i, s := range c.Services {
			if s.Node == victim {
				t.Fatalf("surviving q%d service %d on the dead node", id, i)
			}
		}
	}
}

// TestRepairAdoptedInstance closes the un-evacuable-node gap end to
// end: the owner circuit is gone (its zombie executes the shared
// operator), the operator's host crashes, and Repair must re-own and
// re-instantiate the instance for the surviving subscriber with no
// manual intervention.
func TestRepairAdoptedInstance(t *testing.T) {
	f := newFixture(t, 73, 0)
	stubs := f.env.Topo.StubNodeIDs()
	reg := optimizer.NewRegistry()
	dep := optimizer.NewDeployment(f.env, reg)
	opt := &optimizer.Integrated{Env: f.env, Mapper: placement.OracleMapper{Source: f.env}}

	owner := query.Query{ID: 1, Consumer: stubs[3], Streams: []query.StreamID{0, 1}}
	res, err := opt.Optimize(owner)
	if err != nil {
		t.Fatal(err)
	}
	// Host the shared operator away from every endpoint: the scenario
	// kills its node, and a co-located producer would (correctly) leave
	// nothing to repair toward.
	pinnedNodes := map[topology.NodeID]bool{stubs[8]: true}
	for _, s := range res.Circuit.Services {
		if s.Pinned {
			pinnedNodes[s.Node] = true
		}
	}
	var operatorHost topology.NodeID = -1
	for _, n := range stubs {
		if !pinnedNodes[n] {
			operatorHost = n
			break
		}
	}
	if operatorHost < 0 {
		t.Fatal("no endpoint-free stub")
	}
	for _, s := range res.Circuit.Services {
		if !s.Pinned && s.Plan != nil {
			s.Node = operatorHost
		}
	}
	if err := dep.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	rootSig := res.Circuit.Root().Signature
	var inst *optimizer.ServiceInstance
	for _, i := range reg.Instances() {
		if i.Signature == rootSig {
			inst = i
		}
	}
	if inst == nil {
		t.Fatal("owner deployment registered no root instance")
	}
	b := &optimizer.Builder{Env: f.env}
	consQ := query.Query{ID: 2, Consumer: stubs[8], Streams: []query.StreamID{0, 1}}
	consC, err := b.Skeleton(consQ, res.Circuit.Plan, func(n *query.PlanNode) *optimizer.ServiceInstance {
		if n.Signature() == inst.Signature {
			return inst
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Deploy(consC); err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Deploy(res.Circuit); err != nil {
		t.Fatal(err)
	}
	consRun, err := f.engine.Deploy(consC)
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Dep: dep, Engine: f.engine, Clock: f.clk,
		Mapper: placement.OracleMapper{Source: f.env}}
	f.clk.Sleep(2 * time.Second)

	// Owner leaves; a surviving consumer adopts the instance.
	if err := f.engine.Stop(owner.ID); err != nil {
		t.Fatal(err)
	}
	if err := dep.Cancel(owner.ID); err != nil {
		t.Fatal(err)
	}
	if inst.Owner != consQ.ID {
		t.Fatalf("instance owner q%d after owner cancel, want q%d", inst.Owner, consQ.ID)
	}
	victim := inst.Node
	for _, s := range consC.Services {
		if s.Pinned && !s.Reused && s.Node == victim {
			t.Fatalf("instance host %d doubles as a consumer endpoint; adjust the seed", victim)
		}
	}

	f.net.SetNodeDown(victim, true)
	f.clk.Sleep(500 * time.Millisecond)
	st, err := co.repair([]topology.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if st.Adopted != 1 {
		t.Fatalf("repair stats %+v, want exactly one adopted re-own", st)
	}
	if inst.Node == victim {
		t.Fatal("instance still on the dead node")
	}
	for i, s := range consC.Services {
		if s.Reused && s.ReusedFrom == inst && s.Node != inst.Node {
			t.Fatalf("consumer service %d placed on %d but instance lives on %d", i, s.Node, inst.Node)
		}
	}
	before := consRun.Measure().TuplesOut
	f.clk.Sleep(2 * time.Second)
	if got := consRun.Measure().TuplesOut; got <= before {
		t.Fatalf("subscriber starved after adopted repair: %d → %d", before, got)
	}
}

// TestTicketTTLFailsOverInterruptedSweep: a sweep whose settle is cut
// short leaves handoffs in flight; expired tickets must fail over
// (routes restored, tickets aborted) instead of committing blind.
func TestTicketTTLFailsOverInterruptedSweep(t *testing.T) {
	f := newFixture(t, 74, 4)
	f.clk.Sleep(2 * time.Second)
	victim := operatorVictim(t, f)
	f.env.SetBackgroundLoad(victim, 5.0)

	f.co.TicketTTL = 500 * time.Microsecond
	cancel := make(chan struct{})
	f.clk.AfterFunc(time.Millisecond, func() { close(cancel) })
	st, err := f.co.SweepIncremental(cancel)
	if err != nil {
		t.Fatal(err)
	}
	f.co.TicketTTL = 0
	if st.Planned == 0 {
		t.Fatal("overloaded node produced no moves")
	}
	if !st.Cancelled {
		t.Fatal("settle was not interrupted — the scenario is vacuous")
	}
	if st.Aborted == 0 {
		t.Fatalf("sweep stats %+v: no expired ticket failed over", st)
	}
	if st.Migrated+st.Aborted < st.Planned {
		t.Fatalf("sweep stats %+v: moves unaccounted for", st)
	}
	requireConsistent(t, f)
	f.clk.Sleep(2 * time.Second)
	requireConsistent(t, f)
}

// TestRepairEndToEndWithDetector is the tentpole integration: ambient
// loss, a scheduled crash, heartbeat-driven detection, and automatic
// repair — zero manual Evacuate calls — all deterministic.
func TestRepairEndToEndWithDetector(t *testing.T) {
	runOnce := func() (RunStats, RepairStats, map[query.QueryID][]topology.NodeID) {
		f := newFixture(t, 75, 3)
		victim := operatorVictim(t, f)
		f.net.InstallFaults(overlay.FaultPlan{
			Seed:     75,
			DropProb: 0.01,
			Crashes:  []overlay.NodeCrash{{Node: victim, At: 2 * time.Second}},
		})
		hb := f.net.StartHeartbeatsOpts(100*time.Millisecond, 0.05,
			overlay.HeartbeatOpts{SkipDownTargets: true})
		det := failure.New(f.net, failure.DefaultConfig(100*time.Millisecond))
		defer func() { det.Stop(); hb.Stop() }()
		f.co.Threshold = 0.3
		f.co.TicketTTL = 5 * time.Second

		stop := make(chan struct{})
		f.clk.AfterFunc(8*time.Second, func() { close(stop) })
		rs, err := f.co.Run(det, 500*time.Millisecond, stop)
		if err != nil {
			t.Fatal(err)
		}
		rep := rs.Repair
		if rep.DeadNodes != 1 || rep.Repaired == 0 {
			t.Fatalf("repair stats %+v, want the crash detected and repaired", rep)
		}
		for id, c := range f.co.Dep.Circuits() {
			for i, s := range c.Services {
				if s.Node == victim {
					t.Fatalf("q%d service %d still on the crashed node", id, i)
				}
			}
		}
		requireConsistent(t, f)
		placements := make(map[query.QueryID][]topology.NodeID)
		for _, run := range f.runs {
			c := run.Circuit
			nodes := make([]topology.NodeID, len(c.Services))
			for i, s := range c.Services {
				nodes[i] = s.Node
			}
			placements[c.Query.ID] = nodes
		}
		return rs, rep, placements
	}
	rs1, rep1, p1 := runOnce()
	rs2, rep2, p2 := runOnce()
	if rs1 != rs2 || rep1 != rep2 {
		t.Fatalf("same-seed runs diverge:\n %+v %+v\n %+v %+v", rs1, rep1, rs2, rep2)
	}
	for id, nodes := range p1 {
		for i, n := range nodes {
			if p2[id][i] != n {
				t.Fatalf("final placements diverge: q%d service %d on %d vs %d", id, i, n, p2[id][i])
			}
		}
	}
}
