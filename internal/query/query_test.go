package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/hourglass/sbon/internal/topology"
)

// NewSource returns a leaf node for stream s.
func NewSource(s StreamID) *PlanNode {
	return &PlanNode{Kind: KindSource, Stream: s}
}

// NewFilter returns a filter over child with the given selectivity.
func NewFilter(child *PlanNode, sel float64) *PlanNode {
	return &PlanNode{Kind: KindFilter, Sel: sel, Left: child}
}

// NewAggregate returns an aggregate over child emitting fraction frac of
// its input rate.
func NewAggregate(child *PlanNode, frac float64) *PlanNode {
	return &PlanNode{Kind: KindAggregate, Sel: frac, Left: child}
}

// NewUnion returns a union of the two children.
func NewUnion(left, right *PlanNode) *PlanNode {
	return &PlanNode{Kind: KindUnion, Left: left, Right: right}
}

// Services returns all interior (non-source) nodes of the tree in
// post-order.
func (n *PlanNode) Services() []*PlanNode {
	var out []*PlanNode
	var walk func(p *PlanNode)
	walk = func(p *PlanNode) {
		if p == nil || p.Kind == KindSource {
			return
		}
		walk(p.Left)
		walk(p.Right)
		out = append(out, p)
	}
	walk(n)
	return out
}

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{100, 200, 50, 400} {
		if err := c.AddStream(StreamID(i), topology.NodeID(10+i), rate); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetPairSelectivity(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServiceKindString(t *testing.T) {
	want := map[ServiceKind]string{
		KindSource: "source", KindFilter: "filter", KindJoin: "join",
		KindAggregate: "aggregate", KindUnion: "union",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%v.String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
	if got := ServiceKind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{ID: 1, Consumer: 5, Streams: []StreamID{0, 1},
		FilterSel: map[StreamID]float64{0: 0.5}, AggregateFraction: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Query{
		{ID: 2, Streams: nil},
		{ID: 3, Streams: []StreamID{1, 1}},
		{ID: 4, Streams: []StreamID{1}, FilterSel: map[StreamID]float64{2: 0.5}},
		{ID: 5, Streams: []StreamID{1}, FilterSel: map[StreamID]float64{1: 0}},
		{ID: 6, Streams: []StreamID{1}, FilterSel: map[StreamID]float64{1: 1.5}},
		{ID: 7, Streams: []StreamID{1}, AggregateFraction: -0.1},
		{ID: 8, Streams: []StreamID{1}, AggregateFraction: 1.1},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Fatalf("query %d accepted, want error", q.ID)
		}
	}
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog(t)
	if got := c.Rate(1); got != 200 {
		t.Fatalf("Rate(1) = %v, want 200", got)
	}
	if got := c.Rate(99); got != 0 {
		t.Fatalf("Rate(99) = %v, want 0", got)
	}
	p, ok := c.Producer(2)
	if !ok || p != 12 {
		t.Fatalf("Producer(2) = %v, %v", p, ok)
	}
	streams := c.Streams()
	if len(streams) != 4 || streams[0] != 0 || streams[3] != 3 {
		t.Fatalf("Streams() = %v", streams)
	}
}

func TestCatalogValidation(t *testing.T) {
	if _, err := NewCatalog(0); err == nil {
		t.Fatal("zero default selectivity accepted")
	}
	c := testCatalog(t)
	if err := c.AddStream(0, 1, 100); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	if err := c.AddStream(9, 1, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := c.SetPairSelectivity(0, 1, 0); err == nil {
		t.Fatal("zero selectivity accepted")
	}
}

func TestPairSelectivitySymmetricWithDefault(t *testing.T) {
	c := testCatalog(t)
	if got := c.PairSelectivity(0, 1); got != 0.5 {
		t.Fatalf("PairSelectivity(0,1) = %v, want 0.5", got)
	}
	if got := c.PairSelectivity(1, 0); got != 0.5 {
		t.Fatalf("PairSelectivity(1,0) = %v, want 0.5 (symmetric)", got)
	}
	if got := c.PairSelectivity(2, 3); got != 0.8 {
		t.Fatalf("PairSelectivity(2,3) = %v, want default 0.8", got)
	}
}

func TestJoinSelectivityCrossProduct(t *testing.T) {
	c := testCatalog(t)
	// sel({0},{1,2}) = sel(0,1)*sel(0,2) = 0.5*0.8
	got := c.JoinSelectivity(NewSource(0), NewJoin(NewSource(1), NewFilter(NewSource(2), 0.5)))
	if math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("JoinSelectivity = %v, want 0.4", got)
	}
}

func TestComputeRatesJoinTree(t *testing.T) {
	c := testCatalog(t)
	// (S0 ⋈ S1): sel 0.5, rate = 0.5*(100+200) = 150
	// ((S0 ⋈ S1) ⋈ S2): sel = sel(0,2)*sel(1,2) = 0.64, rate = 0.64*(150+50) = 128
	root := NewJoin(NewJoin(NewSource(0), NewSource(1)), NewSource(2))
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	if math.Abs(root.Left.OutRate-150) > 1e-9 {
		t.Fatalf("inner join rate = %v, want 150", root.Left.OutRate)
	}
	if math.Abs(root.OutRate-128) > 1e-9 {
		t.Fatalf("outer join rate = %v, want 128", root.OutRate)
	}
}

func TestComputeRatesFilterAggregate(t *testing.T) {
	c := testCatalog(t)
	root := NewAggregate(NewFilter(NewSource(3), 0.25), 0.1)
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	if math.Abs(root.Left.OutRate-100) > 1e-9 { // 0.25*400
		t.Fatalf("filter rate = %v, want 100", root.Left.OutRate)
	}
	if math.Abs(root.OutRate-10) > 1e-9 {
		t.Fatalf("aggregate rate = %v, want 10", root.OutRate)
	}
}

func TestComputeRatesUnion(t *testing.T) {
	c := testCatalog(t)
	root := NewUnion(NewSource(0), NewSource(2))
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	if root.OutRate != 150 {
		t.Fatalf("union rate = %v, want 150", root.OutRate)
	}
}

func TestComputeRatesErrors(t *testing.T) {
	c := testCatalog(t)
	cases := []*PlanNode{
		NewSource(99),                        // unknown stream
		{Kind: KindFilter},                   // filter without child
		{Kind: KindJoin, Left: NewSource(0)}, // join missing right
		NewFilter(NewSource(0), 0),           // bad selectivity
		NewFilter(NewSource(0), 1.5),         // bad selectivity
		{Kind: ServiceKind(42)},              // unknown kind
		{Kind: KindUnion, Left: NewSource(0)},
	}
	for i, n := range cases {
		if err := n.ComputeRates(c); err == nil {
			t.Fatalf("case %d: ComputeRates accepted invalid plan", i)
		}
	}
}

func TestLeavesOrder(t *testing.T) {
	root := NewJoin(NewJoin(NewSource(2), NewSource(0)), NewSource(1))
	got := root.Leaves()
	want := []StreamID{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Leaves() = %v, want %v", got, want)
		}
	}
}

func TestServicesPostOrder(t *testing.T) {
	inner := NewJoin(NewSource(0), NewSource(1))
	root := NewJoin(inner, NewSource(2))
	svcs := root.Services()
	if len(svcs) != 2 || svcs[0] != inner || svcs[1] != root {
		t.Fatalf("Services() = %v", svcs)
	}
}

func TestSignatureCanonicalUnderMirror(t *testing.T) {
	a := NewJoin(NewSource(0), NewSource(1))
	b := NewJoin(NewSource(1), NewSource(0))
	if a.Signature() != b.Signature() {
		t.Fatalf("mirrored joins have different signatures: %q vs %q", a.Signature(), b.Signature())
	}
}

func TestSignatureDistinguishesShapes(t *testing.T) {
	// ((0⋈1)⋈2) vs (0⋈(1⋈2)) are different services.
	a := NewJoin(NewJoin(NewSource(0), NewSource(1)), NewSource(2))
	b := NewJoin(NewSource(0), NewJoin(NewSource(1), NewSource(2)))
	if a.Signature() == b.Signature() {
		t.Fatal("different join shapes share a signature")
	}
}

func TestSignatureDistinguishesSelectivities(t *testing.T) {
	a := NewFilter(NewSource(0), 0.5)
	b := NewFilter(NewSource(0), 0.25)
	if a.Signature() == b.Signature() {
		t.Fatal("filters with different selectivities share a signature")
	}
}

func TestStringRendersOperators(t *testing.T) {
	c := testCatalog(t)
	root := NewAggregate(NewJoin(NewFilter(NewSource(0), 0.5), NewSource(1)), 0.1)
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	s := root.String()
	for _, sub := range []string{"S0", "S1", "⋈", "σ", "γ"} {
		if !strings.Contains(s, sub) {
			t.Fatalf("String() = %q missing %q", s, sub)
		}
	}
	u := NewUnion(NewSource(0), NewSource(1))
	if !strings.Contains(u.String(), "∪") {
		t.Fatalf("union String() = %q", u.String())
	}
}

func TestCloneDeep(t *testing.T) {
	c := testCatalog(t)
	root := NewJoin(NewSource(0), NewSource(1))
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	cp := root.Clone()
	cp.Left.Stream = 3
	if root.Left.Stream != 0 {
		t.Fatal("Clone shares child nodes")
	}
	if cp.OutRate != root.OutRate {
		t.Fatal("Clone lost computed rates")
	}
}

func TestIntermediateRateExcludesSources(t *testing.T) {
	c := testCatalog(t)
	root := NewJoin(NewSource(0), NewSource(1)) // single service
	if err := root.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	if got := root.IntermediateRate(); got != root.OutRate {
		t.Fatalf("IntermediateRate = %v, want %v", got, root.OutRate)
	}
	leaf := NewSource(0)
	if err := leaf.ComputeRates(c); err != nil {
		t.Fatal(err)
	}
	if got := leaf.IntermediateRate(); got != 0 {
		t.Fatalf("leaf IntermediateRate = %v, want 0", got)
	}
}

// signatureSlow is the pre-caching reference implementation: pure
// fmt-based recursion, no interning. The cached fast path must match it
// byte for byte.
func signatureSlow(n *PlanNode) string {
	switch n.Kind {
	case KindSource:
		return fmt.Sprintf("s%d", n.Stream)
	case KindFilter:
		return fmt.Sprintf("filter[%.4g](%s)", n.Sel, signatureSlow(n.Left))
	case KindAggregate:
		return fmt.Sprintf("agg[%.4g](%s)", n.Sel, signatureSlow(n.Left))
	case KindJoin, KindUnion:
		a, b := signatureSlow(n.Left), signatureSlow(n.Right)
		if a > b {
			a, b = b, a
		}
		op := "join"
		if n.Kind == KindUnion {
			op = "union"
		}
		return fmt.Sprintf("%s(%s,%s)", op, a, b)
	default:
		return fmt.Sprintf("?%d", n.Kind)
	}
}

// randomTree builds a random plan tree over distinct streams, exercising
// every node kind and awkward selectivity formattings.
func randomTree(rng *rand.Rand, next *int, depth int) *PlanNode {
	if depth <= 0 || rng.Intn(3) == 0 {
		s := StreamID(*next)
		*next++
		leaf := NewSource(s)
		if rng.Intn(2) == 0 {
			return NewFilter(leaf, selFor(rng))
		}
		return leaf
	}
	switch rng.Intn(4) {
	case 0:
		return NewFilter(randomTree(rng, next, depth-1), selFor(rng))
	case 1:
		return NewAggregate(randomTree(rng, next, depth-1), selFor(rng))
	case 2:
		return NewUnion(randomTree(rng, next, depth-1), randomTree(rng, next, depth-1))
	default:
		return NewJoin(randomTree(rng, next, depth-1), randomTree(rng, next, depth-1))
	}
}

func selFor(rng *rand.Rand) float64 {
	// Mix round values with awkward precision to exercise %.4g edge cases.
	switch rng.Intn(4) {
	case 0:
		return 0.5
	case 1:
		return 1
	case 2:
		return rng.Float64()
	default:
		return rng.Float64() / 1e5 // exponent formatting
	}
}

func TestSignatureMatchesSlowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		next := 0
		n := randomTree(rng, &next, 4)
		want := signatureSlow(n)
		if got := n.Signature(); got != want {
			t.Fatalf("Signature = %q, want %q", got, want)
		}
		// Cached second call and clone must agree.
		if got := n.Signature(); got != want {
			t.Fatalf("cached Signature = %q, want %q", got, want)
		}
		if got := n.Clone().Signature(); got != want {
			t.Fatalf("clone Signature = %q, want %q", got, want)
		}
	}
}

func TestShallowCloneDropsSignatureCache(t *testing.T) {
	orig := NewJoin(NewSource(0), NewSource(1))
	_ = orig.Signature() // warm the cache
	c := orig.ShallowClone()
	c.Left, c.Right = NewSource(2), NewSource(3)
	want := signatureSlow(c)
	if got := c.Signature(); got != want {
		t.Fatalf("re-parented ShallowClone signature %q, want %q (stale cache?)", got, want)
	}
	if orig.Signature() == c.Signature() {
		t.Fatal("original shares the re-parented clone's signature")
	}
}
