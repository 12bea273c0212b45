package topology

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testTopo(t *testing.T, seed int64) *Topology {
	t.Helper()
	top, err := Generate(DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return top
}

func TestDefaultConfigNodeCount(t *testing.T) {
	cfg := DefaultConfig()
	want := 4*4 + 4*4*3*12 // 16 transit + 576 stub = 592
	if got := cfg.TotalNodes(); got != want {
		t.Fatalf("TotalNodes() = %d, want %d", got, want)
	}
	top := testTopo(t, 1)
	if top.NumNodes() != want {
		t.Fatalf("NumNodes() = %d, want %d", top.NumNodes(), want)
	}
}

// connected reports whether every node is reachable from node 0 over
// the topology's edge list.
func connected(top *Topology) bool {
	comp := make([]NodeID, top.NumNodes())
	for i := range comp {
		comp[i] = NodeID(i)
	}
	var find func(NodeID) NodeID
	find = func(v NodeID) NodeID {
		for comp[v] != v {
			comp[v] = comp[comp[v]]
			v = comp[v]
		}
		return v
	}
	parts := len(comp)
	for _, e := range top.Edges() {
		if a, b := find(e.A), find(e.B); a != b {
			comp[a] = b
			parts--
		}
	}
	return parts <= 1
}

func TestGenerateConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		top := testTopo(t, seed)
		if !connected(top) {
			t.Fatalf("seed %d: topology not connected", seed)
		}
	}
}

func TestNodeKindsAndDomains(t *testing.T) {
	top := testTopo(t, 2)
	transit, stub := 0, 0
	for _, n := range top.Nodes() {
		switch n.Kind {
		case Transit:
			transit++
			if n.StubDomain != -1 {
				t.Fatalf("transit node %d has StubDomain %d, want -1", n.ID, n.StubDomain)
			}
		case Stub:
			stub++
			if n.StubDomain < 0 {
				t.Fatalf("stub node %d has StubDomain %d, want >= 0", n.ID, n.StubDomain)
			}
		}
		if n.TransitDomain < 0 || n.TransitDomain >= 4 {
			t.Fatalf("node %d has TransitDomain %d out of range", n.ID, n.TransitDomain)
		}
	}
	if transit != 16 || stub != 576 {
		t.Fatalf("got %d transit, %d stub; want 16, 576", transit, stub)
	}
	if got := top.NumStubDomains(); got != 48 {
		t.Fatalf("NumStubDomains() = %d, want 48", got)
	}
}

func TestStubDomainMembership(t *testing.T) {
	top := testTopo(t, 3)
	for d := 0; d < top.NumStubDomains(); d++ {
		members := top.StubDomainMembers(d)
		if len(members) != 12 {
			t.Fatalf("stub domain %d has %d members, want 12", d, len(members))
		}
	}
}

func TestLatencySymmetricAndPositive(t *testing.T) {
	top := testTopo(t, 4)
	ids := []NodeID{0, 5, 17, 100, 333, 591}
	for _, a := range ids {
		for _, b := range ids {
			la, lb := top.Latency(a, b), top.Latency(b, a)
			if la != lb {
				t.Fatalf("Latency(%d,%d)=%v != Latency(%d,%d)=%v", a, b, la, b, a, lb)
			}
			if a == b && la != 0 {
				t.Fatalf("Latency(%d,%d) = %v, want 0", a, b, la)
			}
			if a != b && la <= 0 {
				t.Fatalf("Latency(%d,%d) = %v, want > 0", a, b, la)
			}
		}
	}
}

// Shortest-path latencies must satisfy the triangle inequality exactly
// (they are a true metric, unlike raw Internet RTTs).
func TestLatencyTriangleInequality(t *testing.T) {
	top := testTopo(t, 5)
	rng := rand.New(rand.NewSource(99))
	n := top.NumNodes()
	for trial := 0; trial < 500; trial++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		c := NodeID(rng.Intn(n))
		if top.Latency(a, c) > top.Latency(a, b)+top.Latency(b, c)+1e-9 {
			t.Fatalf("triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
				a, c, top.Latency(a, c), a, b, b, c, top.Latency(a, b)+top.Latency(b, c))
		}
	}
}

func TestLatencyMatchesEdgeForAdjacent(t *testing.T) {
	top := testTopo(t, 6)
	for _, e := range top.Edges() {
		if top.Latency(e.A, e.B) > e.Latency+1e-9 {
			t.Fatalf("shortest path between adjacent %d-%d (%v) exceeds edge latency %v",
				e.A, e.B, top.Latency(e.A, e.B), e.Latency)
		}
	}
}

func TestIntraStubCheaperThanInterDomain(t *testing.T) {
	top := testTopo(t, 7)
	// Mean latency within one stub domain should be far below mean latency
	// between nodes in different transit domains.
	var intraSum, interSum float64
	var intraN, interN int
	m0 := top.StubDomainMembers(0)
	for i := 0; i < len(m0); i++ {
		for j := i + 1; j < len(m0); j++ {
			intraSum += top.Latency(m0[i], m0[j])
			intraN++
		}
	}
	var far NodeID = -1
	for _, n := range top.Nodes() {
		if n.Kind == Stub && n.TransitDomain != top.Node(m0[0]).TransitDomain {
			far = n.ID
			break
		}
	}
	if far < 0 {
		t.Fatal("no stub node in a different transit domain")
	}
	for _, a := range m0 {
		interSum += top.Latency(a, far)
		interN++
	}
	intra := intraSum / float64(intraN)
	inter := interSum / float64(interN)
	if intra*2 > inter {
		t.Fatalf("intra-stub mean %v not clearly below inter-domain mean %v", intra, inter)
	}
}

func TestNeighborsAndDegreeConsistent(t *testing.T) {
	top := testTopo(t, 8)
	nbrs := make([]int, top.NumNodes())
	for _, e := range top.Edges() {
		nbrs[e.A]++
		nbrs[e.B]++
	}
	for _, n := range top.Nodes() {
		if nbrs[n.ID] != top.Degree(n.ID) {
			t.Fatalf("node %d: %d incident edges != Degree=%d", n.ID, nbrs[n.ID], top.Degree(n.ID))
		}
		if nbrs[n.ID] == 0 {
			t.Fatalf("node %d has no neighbors", n.ID)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := testTopo(t, 42)
	b := testTopo(t, 42)
	if a.NumNodes() != b.NumNodes() || len(a.Edges()) != len(b.Edges()) {
		t.Fatal("same seed produced different shapes")
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatalf("edge %d differs: %v vs %v", i, e, b.Edges()[i])
		}
	}
}

func TestGenerateDiffersAcrossSeeds(t *testing.T) {
	a := testTopo(t, 1)
	b := testTopo(t, 2)
	same := true
	for i := range a.Edges() {
		if i >= len(b.Edges()) || a.Edges()[i] != b.Edges()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical edge sets")
	}
}

func TestPerturbLatenciesInvalidatesAndStaysConnected(t *testing.T) {
	top := testTopo(t, 9)
	before := top.Latency(0, 100)
	rng := rand.New(rand.NewSource(1))
	top.PerturbLatencies(rng, 0.5)
	if !connected(top) {
		t.Fatal("perturbed topology lost connectivity")
	}
	after := top.Latency(0, 100)
	if before == after {
		t.Logf("warning: latency unchanged after perturbation (possible but unlikely)")
	}
	for _, e := range top.Edges() {
		if e.Latency < 0.1 {
			t.Fatalf("edge %v below floor", e)
		}
	}
}

func TestPerturbZeroAmountKeepsLatencies(t *testing.T) {
	top := testTopo(t, 10)
	edges := append([]Edge(nil), top.Edges()...)
	top.PerturbLatencies(rand.New(rand.NewSource(2)), 0)
	for i, e := range top.Edges() {
		if e.Latency != edges[i].Latency {
			t.Fatalf("edge %d latency changed with amount=0", i)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{TransitDomains: 1, TransitNodes: 0},
		{TransitDomains: 1, TransitNodes: 1, StubsPerTransit: -1},
		{TransitDomains: 1, TransitNodes: 1, StubsPerTransit: 1, StubNodes: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d: Validate() = nil, want error", i)
		}
	}
	cfg := DefaultConfig()
	cfg.IntraStubLatency = [2]float64{5, 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("descending latency range accepted")
	}
	cfg = DefaultConfig()
	cfg.ExtraStubEdgeProb = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("ExtraStubEdgeProb > 1 accepted")
	}
}

func TestSmallConfigs(t *testing.T) {
	cases := []Config{
		{TransitDomains: 1, TransitNodes: 1, StubsPerTransit: 0, StubNodes: 0,
			IntraTransitLatency: [2]float64{1, 2}},
		{TransitDomains: 1, TransitNodes: 2, StubsPerTransit: 1, StubNodes: 1,
			IntraStubLatency: [2]float64{1, 2}, StubUplinkLatency: [2]float64{1, 2},
			IntraTransitLatency: [2]float64{1, 2}},
		{TransitDomains: 2, TransitNodes: 1, StubsPerTransit: 1, StubNodes: 2,
			IntraStubLatency: [2]float64{1, 2}, StubUplinkLatency: [2]float64{1, 2},
			IntraTransitLatency: [2]float64{1, 2}, InterTransitLatency: [2]float64{5, 10}},
	}
	for i, cfg := range cases {
		top, err := Generate(cfg, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if top.NumNodes() != cfg.TotalNodes() {
			t.Fatalf("case %d: NumNodes=%d want %d", i, top.NumNodes(), cfg.TotalNodes())
		}
		if !connected(top) {
			t.Fatalf("case %d: not connected", i)
		}
	}
}

// Property: for random small configs, generation succeeds, is connected,
// and node counts match the closed form.
func TestGeneratePropertyRandomConfigs(t *testing.T) {
	f := func(td, tn, spt, sn uint8, seed int64) bool {
		cfg := Config{
			TransitDomains:      1 + int(td%3),
			TransitNodes:        1 + int(tn%3),
			StubsPerTransit:     int(spt % 3),
			StubNodes:           1 + int(sn%4),
			IntraStubLatency:    [2]float64{1, 3},
			StubUplinkLatency:   [2]float64{1, 5},
			IntraTransitLatency: [2]float64{5, 10},
			InterTransitLatency: [2]float64{20, 40},
			ExtraStubEdgeProb:   0.2,
		}
		top, err := Generate(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return top.NumNodes() == cfg.TotalNodes() && connected(top)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteNodesCSV(t *testing.T) {
	top := testTopo(t, 11)
	var buf bytes.Buffer
	if err := top.WriteNodesCSV(&buf); err != nil {
		t.Fatalf("WriteNodesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != top.NumNodes()+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), top.NumNodes()+1)
	}
	if !strings.HasPrefix(lines[0], "id,kind,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
}

func TestWriteEdgesCSV(t *testing.T) {
	top := testTopo(t, 12)
	var buf bytes.Buffer
	if err := top.WriteEdgesCSV(&buf); err != nil {
		t.Fatalf("WriteEdgesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(top.Edges())+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), len(top.Edges())+1)
	}
}

func TestComputeStats(t *testing.T) {
	top := testTopo(t, 13)
	s := top.ComputeStats()
	if s.Nodes != 592 || s.TransitNodes != 16 || s.StubNodes != 576 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.MinLatency <= 0 || s.MeanLatency <= s.MinLatency || s.MaxLatency < s.MeanLatency {
		t.Fatalf("latency stats not ordered: %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "nodes=592") {
		t.Fatalf("String() = %q", str)
	}
}

func TestKindString(t *testing.T) {
	if Transit.String() != "transit" || Stub.String() != "stub" {
		t.Fatal("Kind.String() wrong")
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Fatalf("Kind(9).String() = %q", got)
	}
}

func BenchmarkAPSP592(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		top := MustGenerate(cfg, rand.New(rand.NewSource(int64(i))))
		b.StartTimer()
		_ = top.LatencyMatrix()
	}
}
