package plan

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

func testCatalog(t *testing.T, nStreams int, seed int64) *query.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := query.NewCatalog(0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nStreams; i++ {
		if err := c.AddStream(query.StreamID(i), topology.NodeID(i), 50+rng.Float64()*400); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nStreams; i++ {
		for j := i + 1; j < nStreams; j++ {
			if err := c.SetPairSelectivity(query.StreamID(i), query.StreamID(j), 0.3+rng.Float64()*0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func streams(n int) []query.StreamID {
	out := make([]query.StreamID, n)
	for i := range out {
		out[i] = query.StreamID(i)
	}
	return out
}

// CountTrees returns the number of unordered binary join trees over k
// leaves: (2k-3)!! for k >= 2, 1 for k <= 1.
func CountTrees(k int) int { return subPlans(k, 0) }

func TestCountTrees(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 3, 4: 15, 5: 105, 6: 945}
	for k, n := range want {
		if got := CountTrees(k); got != n {
			t.Fatalf("CountTrees(%d) = %d, want %d", k, got, n)
		}
	}
}

func TestEnumerateCountsMatchClosedForm(t *testing.T) {
	for k := 2; k <= 5; k++ {
		c := testCatalog(t, k, int64(k))
		e := NewEnumerator(c)
		plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(k)})
		if err != nil {
			t.Fatal(err)
		}
		// Signature dedup can only reduce the count if two trees coincide,
		// which cannot happen for distinct shapes over distinct leaves.
		if len(plans) != CountTrees(k) {
			t.Fatalf("k=%d: %d plans, want %d", k, len(plans), CountTrees(k))
		}
	}
}

func TestEnumerateSortedByIntermediateRate(t *testing.T) {
	c := testCatalog(t, 5, 7)
	e := NewEnumerator(c)
	plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(5)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i-1].IntermediateRate() > plans[i].IntermediateRate() {
			t.Fatal("plans not sorted by intermediate rate")
		}
	}
}

func TestEnumerateAllPlansCoverAllStreams(t *testing.T) {
	c := testCatalog(t, 4, 3)
	e := NewEnumerator(c)
	plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		leaves := p.Leaves()
		if len(leaves) != 4 {
			t.Fatalf("plan %s has %d leaves", p, len(leaves))
		}
		seen := map[query.StreamID]bool{}
		for _, s := range leaves {
			seen[s] = true
		}
		if len(seen) != 4 {
			t.Fatalf("plan %s repeats leaves", p)
		}
	}
}

func TestEnumerateAppliesFiltersAndAggregate(t *testing.T) {
	c := testCatalog(t, 3, 4)
	q := query.Query{
		ID: 1, Streams: streams(3),
		FilterSel:         map[query.StreamID]float64{0: 0.5},
		AggregateFraction: 0.2,
	}
	e := NewEnumerator(c)
	plans, err := e.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Kind != query.KindAggregate {
			t.Fatalf("plan root is %v, want aggregate", p.Kind)
		}
		foundFilter := false
		for _, s := range services(p) {
			if s.Kind == query.KindFilter {
				foundFilter = true
			}
		}
		if !foundFilter {
			t.Fatalf("plan %s lost the pushed-down filter", p)
		}
	}
}

func TestEnumerateSingleStream(t *testing.T) {
	c := testCatalog(t, 1, 6)
	e := NewEnumerator(c)
	plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Kind != query.KindSource {
		t.Fatalf("single-stream plans = %v", plans)
	}
}

func TestEnumerateErrors(t *testing.T) {
	c := testCatalog(t, 2, 8)
	e := NewEnumerator(c)
	if _, err := e.Enumerate(query.Query{ID: 1}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := e.Enumerate(query.Query{ID: 1, Streams: []query.StreamID{5}}); err == nil {
		t.Fatal("unknown stream accepted")
	}
	e.Catalog = nil
	if _, err := e.Enumerate(query.Query{ID: 1, Streams: streams(2)}); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestBestReturnsCheapest(t *testing.T) {
	c := testCatalog(t, 4, 9)
	e := NewEnumerator(c)
	q := query.Query{ID: 1, Streams: streams(4)}
	best, err := e.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	if best.Signature() != all[0].Signature() {
		t.Fatalf("Best() = %s, cheapest enumerated = %s", best, all[0])
	}
}

// The beam DP with a generous beam must find the same optimum as
// exhaustive enumeration.
func TestBeamDPMatchesExhaustiveOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := testCatalog(t, 5, seed)
		q := query.Query{ID: 1, Streams: streams(5)}

		ex := NewEnumerator(c)
		exPlans, err := ex.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}

		dp := NewEnumerator(c)
		dp.MaxExhaustive = 1 // force the DP path
		dp.BeamWidth = 12
		dpPlans, err := dp.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(dpPlans) == 0 {
			t.Fatal("DP returned no plans")
		}
		exBest := exPlans[0].IntermediateRate()
		dpBest := dpPlans[0].IntermediateRate()
		if math.Abs(exBest-dpBest) > 1e-6*exBest {
			t.Fatalf("seed %d: DP best %v != exhaustive best %v", seed, dpBest, exBest)
		}
	}
}

func TestBeamDPHandlesLargerQueries(t *testing.T) {
	c := testCatalog(t, 9, 11)
	e := NewEnumerator(c)
	plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans for 9-way join")
	}
	if got := len(plans[0].Leaves()); got != 9 {
		t.Fatalf("plan covers %d leaves, want 9", got)
	}
}

func TestBeamDPRejectsHugeQueries(t *testing.T) {
	c := testCatalog(t, 2, 12)
	e := NewEnumerator(c)
	e.MaxExhaustive = 1
	big := make([]query.StreamID, 21)
	for i := range big {
		big[i] = query.StreamID(i)
		if i >= 2 {
			if err := c.AddStream(query.StreamID(i), topology.NodeID(i), 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Enumerate(query.Query{ID: 1, Streams: big}); err == nil {
		t.Fatal("21-stream DP accepted")
	}
}

// leftDeepChain builds the left-deep join tree over the streams ordered
// by ascending source rate — the classic greedy heuristic.
func leftDeepChain(q query.Query, c *query.Catalog) (*query.PlanNode, error) {
	streams := append([]query.StreamID(nil), q.Streams...)
	sort.Slice(streams, func(i, j int) bool {
		ri, rj := c.Rate(streams[i]), c.Rate(streams[j])
		if ri != rj {
			return ri < rj
		}
		return streams[i] < streams[j]
	})
	root := src(streams[0])
	for _, s := range streams[1:] {
		root = join(root, src(s))
	}
	return root, root.ComputeRates(c)
}

// Property: for random small catalogs, the exhaustive minimum is no worse
// than the left-deep heuristic.
func TestExhaustiveBeatsLeftDeepProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := testCatalog(t, 4, seed)
		q := query.Query{ID: 1, Streams: streams(4)}
		e := NewEnumerator(c)
		best, err := e.Best(q)
		if err != nil {
			return false
		}
		ld, err := leftDeepChain(q, c)
		if err != nil {
			return false
		}
		return best.IntermediateRate() <= ld.IntermediateRate()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enumerated plan's rates are internally consistent with
// a fresh recomputation.
func TestEnumerateRatesConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := testCatalog(t, 4, seed)
		e := NewEnumerator(c)
		plans, err := e.Enumerate(query.Query{ID: 1, Streams: streams(4)})
		if err != nil {
			return false
		}
		for _, p := range plans {
			cp := p.Clone()
			if err := cp.ComputeRates(c); err != nil {
				return false
			}
			if math.Abs(cp.OutRate-p.OutRate) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnumerate5Way(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, _ := query.NewCatalog(0.9)
	for i := 0; i < 5; i++ {
		_ = c.AddStream(query.StreamID(i), topology.NodeID(i), 50+rng.Float64()*400)
	}
	e := NewEnumerator(c)
	q := query.Query{ID: 1, Streams: streams(5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Enumerate(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeamDP10Way(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, _ := query.NewCatalog(0.9)
	ids := make([]query.StreamID, 10)
	for i := range ids {
		ids[i] = query.StreamID(i)
		_ = c.AddStream(ids[i], topology.NodeID(i), 50+rng.Float64()*400)
	}
	e := NewEnumerator(c)
	q := query.Query{ID: 1, Streams: ids}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Enumerate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// The reference enumerator: what Enumerate was before the sub-plan
// table — every candidate tree cloned node by node out of an arena, each
// tree rated from scratch with slice-building leaf walks, the beam DP
// cloning both sub-trees per combination, signature dedup, and a stable
// sort that recomputes IntermediateRate on every comparison. It is the
// oracle the table is held to, bit for bit.

func referenceEnumerate(e *Enumerator, q query.Query) ([]*query.PlanNode, error) {
	leaves := make([]*query.PlanNode, len(q.Streams))
	for i, s := range q.Streams {
		leaf := src(s)
		if sel, ok := q.FilterSel[s]; ok {
			leaf = filter(leaf, sel)
		}
		leaf.Signature()
		leaves[i] = leaf
	}

	var trees []*query.PlanNode
	maxEx := e.MaxExhaustive
	if maxEx <= 0 {
		maxEx = 6
	}
	if len(leaves) <= maxEx {
		trees = enumerateAllTrees(leaves)
	} else {
		var err error
		trees, err = e.beamDP(leaves)
		if err != nil {
			return nil, err
		}
	}

	seen := make(map[string]bool, len(trees))
	plans := make([]*query.PlanNode, 0, len(trees))
	for _, tr := range trees {
		root := tr
		if q.AggregateFraction > 0 {
			root = aggregate(root, q.AggregateFraction)
		}
		if err := referenceComputeRates(root, e.Catalog); err != nil {
			return nil, err
		}
		sig := root.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		plans = append(plans, root)
	}
	sort.SliceStable(plans, func(i, j int) bool {
		return referenceIntermediateRate(plans[i]) < referenceIntermediateRate(plans[j])
	})
	return plans, nil
}

// referenceComputeRates is the rate model as ComputeRates implemented it
// before it stopped allocating: leaf slices per join, selectivities
// multiplied in left-to-right leaf order.
func referenceComputeRates(n *query.PlanNode, c *query.Catalog) error {
	switch n.Kind {
	case query.KindSource:
		n.OutRate = c.Rate(n.Stream)
		return nil
	case query.KindFilter, query.KindAggregate:
		if err := referenceComputeRates(n.Left, c); err != nil {
			return err
		}
		n.OutRate = n.Sel * n.Left.OutRate
		return nil
	case query.KindJoin:
		if err := referenceComputeRates(n.Left, c); err != nil {
			return err
		}
		if err := referenceComputeRates(n.Right, c); err != nil {
			return err
		}
		n.Sel = 1.0
		for _, a := range n.Left.Leaves() {
			for _, b := range n.Right.Leaves() {
				n.Sel *= c.PairSelectivity(a, b)
			}
		}
		n.OutRate = n.Sel * (n.Left.OutRate + n.Right.OutRate)
		return nil
	default:
		return fmt.Errorf("reference: unexpected kind %v", n.Kind)
	}
}

// referenceIntermediateRate sums service output rates over the
// materialised post-order list, as IntermediateRate used to.
func referenceIntermediateRate(n *query.PlanNode) float64 {
	var sum float64
	for _, s := range services(n) {
		sum += s.OutRate
	}
	return sum
}

// nodeArena batch-allocates PlanNodes for the reference enumeration.
type nodeArena struct {
	slab []query.PlanNode
}

const arenaSlabNodes = 256

func (a *nodeArena) alloc() *query.PlanNode {
	if len(a.slab) == 0 {
		a.slab = make([]query.PlanNode, arenaSlabNodes)
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	return n
}

// clone deep-copies the tree from arena nodes. Cached signature strings
// are shared with the original (see query.PlanNode.Clone).
func (a *nodeArena) clone(n *query.PlanNode) *query.PlanNode {
	if n == nil {
		return nil
	}
	out := a.alloc()
	*out = *n
	out.Left = a.clone(n.Left)
	out.Right = a.clone(n.Right)
	return out
}

// join builds a join node from the arena, mirroring query.NewJoin.
func (a *nodeArena) join(left, right *query.PlanNode) *query.PlanNode {
	out := a.alloc()
	*out = query.PlanNode{Kind: query.KindJoin, Left: left, Right: right}
	return out
}

// enumerateAllTrees generates every unordered binary join tree over the
// leaves. Mirror duplicates are avoided by keeping the leaf with the
// lowest index on the left side of every split.
func enumerateAllTrees(leaves []*query.PlanNode) []*query.PlanNode {
	idx := make([]int, len(leaves))
	for i := range idx {
		idx[i] = i
	}
	var arena nodeArena
	var build func(set []int) []*query.PlanNode
	build = func(set []int) []*query.PlanNode {
		if len(set) == 1 {
			// Fresh clone per use: plans must not share mutable nodes.
			return []*query.PlanNode{arena.clone(leaves[set[0]])}
		}
		var out []*query.PlanNode
		first, rest := set[0], set[1:]
		// Choose which of the remaining leaves accompany `first` on the
		// left side: any proper subset (possibly empty).
		n := len(rest)
		for mask := 0; mask < 1<<n; mask++ {
			left := []int{first}
			var right []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					left = append(left, rest[i])
				} else {
					right = append(right, rest[i])
				}
			}
			if len(right) == 0 {
				continue
			}
			for _, lt := range build(left) {
				for _, rt := range build(right) {
					j := arena.join(arena.clone(lt), arena.clone(rt))
					j.Signature()
					out = append(out, j)
				}
			}
		}
		return out
	}
	return build(idx)
}

// ratedPlan pairs a subtree with its cumulative intermediate rate, used
// by the reference beam DP.
type ratedPlan struct {
	node *query.PlanNode
	cost float64
}

// beamDP runs subset dynamic programming keeping the BeamWidth cheapest
// plans per stream subset.
func (e *Enumerator) beamDP(leaves []*query.PlanNode) ([]*query.PlanNode, error) {
	k := len(leaves)
	if k > 20 {
		return nil, fmt.Errorf("plan: %d streams exceeds DP limit of 20", k)
	}
	beam := e.BeamWidth
	if beam < 1 {
		beam = 3
	}
	var arena nodeArena
	dp := make([][]ratedPlan, 1<<k)
	for i, leaf := range leaves {
		l := arena.clone(leaf)
		if err := referenceComputeRates(l, e.Catalog); err != nil {
			return nil, err
		}
		cost := 0.0
		if l.Kind != query.KindSource {
			cost = l.OutRate // a pushed-down filter is a service too
		}
		dp[1<<i] = []ratedPlan{{node: l, cost: cost}}
	}
	for mask := 1; mask < 1<<k; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		lowest := mask & -mask
		var cands []ratedPlan
		// Enumerate splits; keep the lowest bit on the left to halve work.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&lowest == 0 {
				continue
			}
			other := mask ^ sub
			if other == 0 {
				continue
			}
			for _, lp := range dp[sub] {
				for _, rp := range dp[other] {
					jn := arena.join(arena.clone(lp.node), arena.clone(rp.node))
					if err := referenceComputeRates(jn, e.Catalog); err != nil {
						return nil, err
					}
					jn.Signature()
					cands = append(cands, ratedPlan{
						node: jn,
						cost: lp.cost + rp.cost + jn.OutRate,
					})
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
		if len(cands) > beam {
			cands = cands[:beam]
		}
		dp[mask] = cands
	}
	full := dp[1<<k-1]
	out := make([]*query.PlanNode, len(full))
	for i, rp := range full {
		out[i] = rp.node
	}
	return out, nil
}

// samePlans requires got to be want bit for bit: count, order, and for
// every node of every plan its kind, stream, signature, selectivity and
// output rate, plus each plan's intermediate rate.
func samePlans(t testing.TB, got, want []*query.PlanNode) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d plans, reference %d", len(got), len(want))
	}
	var same func(i int, g, w *query.PlanNode)
	same = func(i int, g, w *query.PlanNode) {
		if (g == nil) != (w == nil) {
			t.Fatalf("plan %d: shapes diverge", i)
		}
		if g == nil {
			return
		}
		if g.Kind != w.Kind || g.Stream != w.Stream || g.Signature() != w.Signature() {
			t.Fatalf("plan %d: node %q, reference %q", i, g.Signature(), w.Signature())
		}
		if math.Float64bits(g.Sel) != math.Float64bits(w.Sel) || math.Float64bits(g.OutRate) != math.Float64bits(w.OutRate) {
			t.Fatalf("plan %d node %q: sel %v rate %v, reference sel %v rate %v", i, g.Signature(), g.Sel, g.OutRate, w.Sel, w.OutRate)
		}
		same(i, g.Left, w.Left)
		same(i, g.Right, w.Right)
	}
	for i := range got {
		same(i, got[i], want[i])
		if g, w := got[i].IntermediateRate(), referenceIntermediateRate(want[i]); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("plan %d: intermediate rate %v, reference %v", i, g, w)
		}
	}
}

// referenceCase builds the catalog and query of one differential case:
// width streams with seeded rates and pairwise selectivities (coarse
// ones when coarse is set, so that costs tie and order is decided by
// position), filters on the streams in filterMask, and the aggregate.
func referenceCase(t testing.TB, width int, filterMask uint, agg float64, seed int64, coarse bool) (*query.Catalog, query.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	draw := func(lo, span float64) float64 {
		if coarse {
			return lo + span*float64(rng.Intn(3))/2
		}
		return lo + span*rng.Float64()
	}
	c, err := query.NewCatalog(0.9)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{ID: 1, Streams: streams(width), AggregateFraction: agg}
	for i := 0; i < width; i++ {
		if err := c.AddStream(query.StreamID(i), topology.NodeID(i), draw(50, 400)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if err := c.SetPairSelectivity(query.StreamID(j), query.StreamID(i), draw(0.3, 0.9)); err != nil {
				t.Fatal(err)
			}
		}
		if filterMask&(1<<i) != 0 {
			if q.FilterSel == nil {
				q.FilterSel = map[query.StreamID]float64{}
			}
			q.FilterSel[query.StreamID(i)] = draw(0.25, 0.75)
		}
	}
	return c, q
}

// checkAgainstReference runs one differential case through Enumerate
// and Best.
func checkAgainstReference(t testing.TB, c *query.Catalog, q query.Query) {
	t.Helper()
	e := NewEnumerator(c)
	got, err := e.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEnumerate(e, q)
	if err != nil {
		t.Fatal(err)
	}
	samePlans(t, got, want)
	best, err := e.Best(q)
	if err != nil {
		t.Fatal(err)
	}
	samePlans(t, []*query.PlanNode{best}, want[:1])
}

// TestEnumerateMatchesReference holds the sub-plan table to the
// reference on both sides of MaxExhaustive (widths 1–6 enumerate
// exhaustively, 7 runs the beam), with and without filters and the
// aggregate, on generic and on tie-heavy statistics.
func TestEnumerateMatchesReference(t *testing.T) {
	for width := 1; width <= 7; width++ {
		for _, filterMask := range []uint{0, 0b0101011} {
			for _, agg := range []float64{0, 0.25} {
				for _, coarse := range []bool{false, true} {
					c, q := referenceCase(t, width, filterMask&(1<<width-1), agg, int64(31*width)+7, coarse)
					checkAgainstReference(t, c, q)
				}
			}
		}
	}
}

// FuzzEnumerateMatchesReference drives the same comparison from fuzzed
// shapes and statistics.
func FuzzEnumerateMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(0), int64(1), false)
	f.Add(uint8(5), uint8(0b10110), uint8(64), int64(29), false)
	f.Add(uint8(6), uint8(0b000001), uint8(255), int64(1031), true)
	f.Add(uint8(7), uint8(0b1111111), uint8(0), int64(-5), true)
	f.Fuzz(func(t *testing.T, width, filterMask, agg uint8, seed int64, coarse bool) {
		w := 1 + int(width)%7
		c, q := referenceCase(t, w, uint(filterMask)&(1<<w-1), float64(agg)/255, seed, coarse)
		checkAgainstReference(t, c, q)
	})
}

// TestBestAndEnumerateShareAnEnumerator is the re-entrancy guard for
// Best, which used to flip a plan-count cut around a call to Enumerate: concurrent
// callers on one enumerator must each get the full, correct answer (run
// under -race).
func TestBestAndEnumerateShareAnEnumerator(t *testing.T) {
	c, q := referenceCase(t, 5, 0b00110, 0.5, 3, false)
	e := NewEnumerator(c)
	want, err := referenceEnumerate(e, q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					best, err := e.Best(q)
					if err != nil || best.Signature() != want[0].Signature() {
						t.Errorf("Best = %v, %v; want %s", best, err, want[0])
						return
					}
					continue
				}
				plans, err := e.Enumerate(q)
				if err != nil || len(plans) != len(want) {
					t.Errorf("Enumerate returned %d plans, %v; want %d", len(plans), err, len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEnumerateBitIdenticalToReference pins the satellite requirement:
// arena cloning and signature interning must not change plan selection —
// same plans, same order, same signatures and rates.
func TestEnumerateBitIdenticalToReference(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		cat := testCatalog(t, k, int64(100+k))
		q := query.Query{ID: 1, Consumer: 0, Streams: streams(k),
			FilterSel:         map[query.StreamID]float64{0: 0.5},
			AggregateFraction: 0.25}
		e := NewEnumerator(cat)
		got, err := e.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceEnumerate(NewEnumerator(cat), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d plans, reference %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Signature() != want[i].Signature() {
				t.Fatalf("k=%d plan %d: signature %q, reference %q", k, i, got[i].Signature(), want[i].Signature())
			}
			if got[i].OutRate != want[i].OutRate || got[i].IntermediateRate() != want[i].IntermediateRate() {
				t.Fatalf("k=%d plan %d: rates diverge from reference", k, i)
			}
		}
	}
}

// TestBeamDPBitIdenticalUnderArena pins that the beam DP path (k >
// MaxExhaustive) selects the same winning plan with arenas and interning
// as plain per-node cloning would: the winner's signature equals the
// exhaustive path's winner for a size both can handle.
func TestBeamDPBitIdenticalUnderArena(t *testing.T) {
	cat := testCatalog(t, 6, 42)
	q := query.Query{ID: 1, Consumer: 0, Streams: streams(6)}
	ex := NewEnumerator(cat)
	exPlans, err := ex.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewEnumerator(cat)
	dp.MaxExhaustive = 3 // force the DP path
	dp.BeamWidth = 64    // wide beam: exact
	dpPlans, err := dp.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	if exPlans[0].Signature() != dpPlans[0].Signature() {
		t.Fatalf("DP winner %q != exhaustive winner %q", dpPlans[0].Signature(), exPlans[0].Signature())
	}
}

// TestEnumerateAllocScaling pins what enumeration costs the allocator:
// nothing per sub-plan or per candidate tree. Into a reused table —
// the optimizer's path, whose plans are unsigned — it costs nothing;
// into a fresh one, some thirty allocations for the table's storage and
// one signature string per returned plan (105 for a 5-way join). It cost
// one string per distinct sub-plan (225) on top while every sub-plan was
// signed, and the clone-per-use enumerator took ≈9,100 for the query.
func TestEnumerateAllocScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat, err := query.NewCatalog(0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cat.AddStream(query.StreamID(i), topology.NodeID(i), 50+rng.Float64()*400); err != nil {
			t.Fatal(err)
		}
	}
	q := query.Query{ID: 1, Consumer: 0, Streams: streams(5)}
	e := NewEnumerator(cat)
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := e.Enumerate(q); err != nil {
			t.Fatal(err)
		}
	})
	var table Table
	reused := testing.AllocsPerRun(20, func() {
		if _, err := e.EnumerateInto(&table, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Enumerate(5-way): %.0f allocs into a fresh table, %.0f into a reused one", fresh, reused)
	if fresh > 146 || reused != 0 {
		t.Fatalf("Enumerate(5-way) = %.0f allocs fresh (want <= 146: 133 + 10 %%), %.0f reused (want 0)", fresh, reused)
	}
}
