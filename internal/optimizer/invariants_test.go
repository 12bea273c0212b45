package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
)

// TestDeploymentInvariantsUnderRandomOps drives the deployment through a
// random interleaving of multi-query deploys, cancels, migration sweeps,
// and plan rewrites, checking global invariants after every operation and
// full cleanliness after draining — the bookkeeping the rest of the
// system (loads, registry, shared services) depends on.
func TestDeploymentInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(70); seed < 74; seed++ {
		env, base := testSetup(t, seed, false)
		rng := rand.New(rand.NewSource(seed))
		mapper := placement.OracleMapper{Source: env}
		truth := TrueLatency{Topo: env.Topo}

		// Snapshot background loads to verify full release at the end.
		initialLoads := make([]float64, env.Topo.NumNodes())
		for i := range initialLoads {
			initialLoads[i] = env.Load(topologyID(i))
		}

		reg := NewRegistry()
		dep := NewDeployment(env, reg)
		mq := &MultiQuery{Env: env, Registry: reg, Radius: 80, Mapper: mapper}
		ro := NewReoptimizer(dep)
		ro.Mapper = mapper

		var deployed []query.QueryID
		nextID := query.QueryID(100)

		checkInvariants := func(op string) {
			t.Helper()
			for _, inst := range reg.Instances() {
				if inst.RefCount < 1 {
					t.Fatalf("seed %d after %s: instance %s refcount %d", seed, op, inst.Signature, inst.RefCount)
				}
			}
			for _, id := range deployed {
				c, ok := dep.Circuit(id)
				if !ok {
					t.Fatalf("seed %d after %s: circuit %d vanished", seed, op, id)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("seed %d after %s: circuit %d invalid: %v", seed, op, id, err)
				}
				for _, s := range c.Services {
					if s.Reused && s.ReusedFrom.RefCount < 1 {
						t.Fatalf("seed %d after %s: reused instance dangling", seed, op)
					}
				}
			}
			if u := dep.TotalUsage(truth); u < 0 || math.IsNaN(u) {
				t.Fatalf("seed %d after %s: total usage %v", seed, op, u)
			}
			for i := range initialLoads {
				if env.Load(topologyID(i)) < initialLoads[i]-1e-9 {
					t.Fatalf("seed %d after %s: node %d load fell below background", seed, op, i)
				}
			}
		}

		for step := 0; step < 40; step++ {
			switch op := rng.Intn(4); {
			case op == 0 || len(deployed) == 0: // deploy
				q := base
				q.ID = nextID
				nextID++
				q.Streams = base.Streams[:1+rng.Intn(len(base.Streams))]
				q.Consumer = env.Topo.StubNodeIDs()[rng.Intn(len(env.Topo.StubNodeIDs()))]
				res, err := mq.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := dep.Deploy(res.Circuit); err != nil {
					t.Fatal(err)
				}
				deployed = append(deployed, q.ID)
				checkInvariants("deploy")
			case op == 1: // cancel a random circuit
				i := rng.Intn(len(deployed))
				if err := dep.Cancel(deployed[i]); err != nil {
					t.Fatal(err)
				}
				deployed = append(deployed[:i], deployed[i+1:]...)
				checkInvariants("cancel")
			case op == 2: // migration sweep
				planAndCommit(t, ro)
				checkInvariants("reopt")
			default: // rewrite sweep
				if _, err := ro.RewriteStep(); err != nil {
					t.Fatal(err)
				}
				// Rewrites replace circuits in place under the same IDs.
				checkInvariants("rewrite")
			}
		}

		// Drain everything: the world must return to its initial state.
		for _, id := range deployed {
			if err := dep.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		if reg.Len() != 0 {
			t.Fatalf("seed %d: %d instances left after drain", seed, reg.Len())
		}
		if dep.NumDeployed() != 0 {
			t.Fatalf("seed %d: %d circuits left after drain", seed, dep.NumDeployed())
		}
		if u := dep.TotalUsage(truth); u != 0 {
			t.Fatalf("seed %d: usage %v after drain", seed, u)
		}
		for i := range initialLoads {
			if math.Abs(env.Load(topologyID(i))-initialLoads[i]) > 1e-6 {
				t.Fatalf("seed %d: node %d load %v, want background %v",
					seed, i, env.Load(topologyID(i)), initialLoads[i])
			}
		}
	}
}
