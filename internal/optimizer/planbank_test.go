package optimizer

import (
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/topology"
)

func topologyID(i int) topology.NodeID { return topology.NodeID(i) }

func TestPlanBankCompileAndOptimize(t *testing.T) {
	env, q := testSetup(t, 50, false)
	truth := TrueLatency{Topo: env.Topo}
	mapper := placement.OracleMapper{Source: env}

	pb := NewPlanBank(env)
	pb.Mapper = mapper
	pb.Model = truth

	n, err := pb.Compile(q, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("banked %d plans", n)
	}
	if got := len(pb.banks[q.ID]); got != n {
		t.Fatalf("banked plans = %d, want %d", got, n)
	}
	res, err := pb.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatalf("invalid circuit: %v", err)
	}
	if res.PlansConsidered != n {
		t.Fatalf("considered %d plans, want the %d banked", res.PlansConsidered, n)
	}
}

// The paper's argument: the bank can only contain a subset of the plans
// integration considers, so under the same selection model integrated is
// never worse, and two-step (one plan, chosen blind) is never better
// than a bank that includes the rate-optimal plan among its states.
func TestPlanBankBracketedByIntegratedAndTwoStep(t *testing.T) {
	for seed := int64(60); seed < 66; seed++ {
		env, q := testSetup(t, seed, false)
		truth := TrueLatency{Topo: env.Topo}
		mapper := placement.OracleMapper{Source: env}

		pb := NewPlanBank(env)
		pb.Mapper = mapper
		pb.Model = truth
		if _, err := pb.Compile(q, 6, 0.5); err != nil {
			t.Fatal(err)
		}
		bank, err := pb.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		integ, err := (&Integrated{Env: env, Mapper: mapper, Model: truth}).Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		ub := bank.Circuit.NetworkUsage(truth)
		ui := integ.Circuit.NetworkUsage(truth)
		if ui > ub+1e-9 {
			t.Fatalf("seed %d: integrated %v worse than plan bank %v", seed, ui, ub)
		}
	}
}

func TestPlanBankUncompiledQuery(t *testing.T) {
	env, q := testSetup(t, 51, false)
	pb := NewPlanBank(env)
	if _, err := pb.Optimize(q); err == nil {
		t.Fatal("uncompiled query accepted")
	}
	if _, err := pb.Compile(q, 0, 0.5); err == nil {
		t.Fatal("states=0 accepted")
	}
}

func TestJitteredLatencyProperties(t *testing.T) {
	env, _ := testSetup(t, 52, false)
	base := TrueLatency{Topo: env.Topo}
	j := JitteredLatency{Base: base, Seed: 3, Amount: 0.4}
	if j.Name() == "" {
		t.Fatal("empty name")
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			na, nb := topologyID(a), topologyID(b)
			l1 := j.Latency(na, nb)
			l2 := j.Latency(nb, na) // symmetric
			if l1 != l2 {
				t.Fatalf("jitter asymmetric for (%d,%d)", a, b)
			}
			bl := base.Latency(na, nb)
			if l1 < bl*0.6-1e-9 || l1 > bl*1.4+1e-9 {
				t.Fatalf("jittered latency %v outside ±40%% of %v", l1, bl)
			}
			// Deterministic per seed.
			if l1 != (JitteredLatency{Base: base, Seed: 3, Amount: 0.4}).Latency(na, nb) {
				t.Fatal("jitter not deterministic")
			}
			// Different seeds differ somewhere.
		}
	}
	other := JitteredLatency{Base: base, Seed: 4, Amount: 0.4}
	same := true
	for a := 0; a < 10 && same; a++ {
		for b := a + 1; b < 10; b++ {
			if other.Latency(topologyID(a), topologyID(b)) != j.Latency(topologyID(a), topologyID(b)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}
