package optimizer

import (
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

func TestCircuitStringMentionsAllServices(t *testing.T) {
	env, q := testSetup(t, 80, false)
	res, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Circuit.String()
	for _, want := range []string{"S0@", "S1@", "join@", "consumer@"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestCircuitTotalLinkRateAndLoadPenalty(t *testing.T) {
	env, q := testSetup(t, 81, false)
	res, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Circuit.TotalLinkRate(); got <= 0 {
		t.Fatalf("TotalLinkRate = %v", got)
	}
	if got := res.Circuit.LoadPenalty(env); got < 0 {
		t.Fatalf("LoadPenalty = %v", got)
	}
}

func TestCircuitNewServicesExcludesSourcesAndConsumer(t *testing.T) {
	env, q := testSetup(t, 82, false)
	res, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Circuit.NewServices() {
		if s.Plan == nil || s.Plan.Kind == query.KindSource {
			t.Fatal("NewServices leaked a source or the consumer")
		}
	}
}

func TestMultiQueryNilRegistry(t *testing.T) {
	env, q := testSetup(t, 84, false)
	mq := &MultiQuery{Env: env}
	if _, err := mq.Optimize(q); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestMultiQueryInvalidQuery(t *testing.T) {
	env, _ := testSetup(t, 85, false)
	mq := NewMultiQuery(env, NewRegistry(), 10)
	if _, err := mq.Optimize(query.Query{ID: 1}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestTwoStepInvalidQuery(t *testing.T) {
	env, _ := testSetup(t, 86, false)
	if _, err := NewTwoStep(env).Optimize(query.Query{ID: 1}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestIntegratedInvalidQuery(t *testing.T) {
	env, _ := testSetup(t, 87, false)
	if _, err := NewIntegrated(env).Optimize(query.Query{ID: 1}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := NewIntegrated(env).Optimize(query.Query{ID: 1, Streams: []query.StreamID{99}}); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestConsumerLatencyReusedPath(t *testing.T) {
	env, q := testSetup(t, 88, false)
	reg := NewRegistry()
	dep := NewDeployment(env, reg)
	mq := NewMultiQuery(env, reg, 1e18)
	r1, err := mq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Deploy(r1.Circuit); err != nil {
		t.Fatal(err)
	}
	q2 := q
	q2.ID = 2
	q2.Consumer = env.Topo.StubNodeIDs()[1]
	r2, err := mq.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedServices == 0 {
		t.Fatal("no reuse: the seed-88 fixture's second query must reuse a service of the first")
	}
	truth := TrueLatency{Topo: env.Topo}
	lat := r2.Circuit.ConsumerLatency(truth)
	if lat <= 0 {
		t.Fatalf("latency through reused instance = %v", lat)
	}
	// Latency must include the reused instance's upstream component.
	for _, s := range r2.Circuit.Services {
		if s.Reused && s.ReusedFrom.UpstreamLatency > lat {
			t.Fatalf("consumer latency %v below reused upstream %v", lat, s.ReusedFrom.UpstreamLatency)
		}
	}
}

// reembed reruns Vivaldi against the topology's current latencies and
// syncs every node's coordinate into env, the way a coordinate
// maintainer re-syncs the optimizer after latencies drift.
func reembed(t *testing.T, env *Env) int {
	t.Helper()
	cfg := env.Config()
	emb, err := vivaldi.Embed(env.Topo.NumNodes(), env.Topo.PairLatency, vivaldi.DefaultConfig(), cfg.VivaldiRounds, cfg.VivaldiSamples, env.Rand())
	if err != nil {
		t.Fatal(err)
	}
	moved, err := env.SetCoordinates(emb.Coords)
	if err != nil {
		t.Fatal(err)
	}
	return moved
}

func TestEnvReembedCoordinates(t *testing.T) {
	env, _ := testSetup(t, 89, false)
	epoch := env.Epoch()
	env.Topo.PerturbLatencies(env.Rand(), 0.5)
	if moved := reembed(t, env); moved == 0 {
		t.Fatal("re-embedding after perturbed latencies moved no coordinate")
	}
	if env.Epoch() == epoch {
		t.Fatal("re-embedding did not advance the epoch")
	}
	for n := range env.Topo.Nodes() {
		id := topology.NodeID(n)
		want := env.Space().NewPoint(env.VecCoord(id), []float64{env.Load(id)})
		if env.Space().Distance(want, env.Point(id)) != 0 {
			t.Fatalf("node %d: point %v does not follow its new coordinate %v", id, env.Point(id), env.VecCoord(id))
		}
	}
}

func TestUpstreamLatencyOfMissingService(t *testing.T) {
	env, q := testSetup(t, 90, false)
	res, err := NewIntegrated(env).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ghost := &PlacedService{}
	if got := upstreamLatency(res.Circuit, ghost, TrueLatency{Topo: env.Topo}); got != 0 {
		t.Fatalf("upstreamLatency of foreign service = %v, want 0", got)
	}
}
