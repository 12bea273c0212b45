// Package plan implements plan generation for SBON queries: enumerating
// candidate logical plans (join trees) over a query's source streams and
// costing them with the network-oblivious rate model from the statistics
// catalog.
//
// Two enumeration strategies are provided, both one subset dynamic
// program over a per-query table of distinct sub-plans (see Table):
//
//   - Exhaustive enumeration of all unordered binary join trees, feasible
//     for small stream counts ((2k-3)!! trees over k streams: 15 for a
//     4-way join). The integrated optimizer virtually places each of these
//     (§3.3: "a set of candidate plans is created ... each plan is
//     virtually placed and physically mapped").
//   - The same program with a beam (top-B plans kept per stream subset),
//     for larger queries where exhaustive enumeration explodes.
//
// Plans returned are distinct by canonical signature and sorted by the
// traditional cost metric, total intermediate data rate. The unit of
// work is the sub-plan, not the tree: a 5-way join has 105 trees of 9
// nodes each but only 225 distinct sub-plans, each built and rated once,
// shared by every tree that contains it, and signed only as part of a
// plan that leaves the enumerator (Enumerate) or an optimizer.
package plan

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/hourglass/sbon/internal/query"
)

// Enumerator generates candidate logical plans for queries.
type Enumerator struct {
	// Catalog supplies rates and selectivities.
	Catalog *query.Catalog
	// MaxExhaustive is the largest stream count for which all join trees
	// are enumerated; above it the beam DP is used. Default 6.
	MaxExhaustive int
	// BeamWidth is the number of plans kept per stream subset in the DP
	// (default 3).
	BeamWidth int
}

// NewEnumerator returns an enumerator with default limits.
func NewEnumerator(c *query.Catalog) *Enumerator {
	return &Enumerator{Catalog: c, MaxExhaustive: 6, BeamWidth: 3}
}

// Enumerate returns candidate plans for q, cheapest (by intermediate
// rate) first. Every plan has rates and signatures computed and ends
// with the query's aggregate, if any.
//
// The plans of one call share their sub-plans: they are roots into one
// DAG with a single node per distinct sub-plan, not disjoint trees.
// Treat them as read-only — Clone a plan before mutating it, ShallowClone
// a node before re-parenting it.
func (e *Enumerator) Enumerate(q query.Query) ([]*query.PlanNode, error) {
	plans, err := e.EnumerateInto(new(Table), q)
	for _, p := range plans {
		p.Signature()
	}
	return plans, err
}

// EnumerateInto is Enumerate with caller-owned storage, unsigned: the
// plans live in t and are valid until t is used again. An optimizer that
// keeps one Table per goroutine enumerates without allocating; Clone the
// plan that is to outlive the table, and sign the clone.
func (e *Enumerator) EnumerateInto(t *Table, q query.Query) ([]*query.PlanNode, error) {
	if err := e.candidates(t, q); err != nil {
		return nil, err
	}
	sort.Stable(&t.ranked)
	return t.ranked.plans, nil
}

// Best returns only the cheapest plan by intermediate rate — what a
// traditional two-step optimizer would hand to the placement phase: the
// plan Enumerate would return first, found without sorting. The plan is
// the caller's own copy.
func (e *Enumerator) Best(q query.Query) (*query.PlanNode, error) {
	var t Table
	if err := e.candidates(&t, q); err != nil {
		return nil, err
	}
	r, best := &t.ranked, 0
	for i := range r.keys {
		if r.Less(i, best) {
			best = i
		}
	}
	return r.plans[best].Clone(), nil
}

// subPlans returns how many sub-plans the table holds for a set of k
// leaves: every join tree over them, or the beam best of them when
// beam > 0 (the count saturates there, so it cannot overflow).
func subPlans(k, beam int) int {
	n := 1
	for f := 2*k - 3; f > 1; f -= 2 {
		n *= f
		if beam > 0 && n >= beam {
			return beam
		}
	}
	return n
}

// Table holds one query's enumeration: every distinct sub-plan, built
// once — rated, unsigned, and shared by all candidate trees that contain
// it — and indexed by the bitmask of the leaves it covers. A zero Table
// is ready to use; reusing one recycles its storage, so a Table serves
// one goroutine at a time.
type Table struct {
	// nodes is the slab all plan nodes are carved from. It is sized
	// before the first node is built and never grows after: nodes point
	// at each other.
	nodes []query.PlanNode
	// cost[i] is the beam DP's cumulative intermediate rate of nodes[i].
	cost []float64
	// span[mask] bounds the sub-plans over leaf set mask: nodes[lo:hi],
	// in enumeration order.
	span   [][2]int
	cands  []candidate
	ranked ranked
}

// candidate is a join the table may keep: the rated node by value (it
// enters the slab only if it survives the beam) and its DP cost.
type candidate struct {
	node query.PlanNode
	cost float64
}

// ranked orders candidate plans by intermediate rate, computed once per
// plan; sorting it stably keeps enumeration order among equals.
type ranked struct {
	plans []*query.PlanNode
	keys  []float64
}

func (r *ranked) Len() int           { return len(r.plans) }
func (r *ranked) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *ranked) Swap(i, j int) {
	r.plans[i], r.plans[j] = r.plans[j], r.plans[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

// add moves a rated node into the slab.
func (t *Table) add(n query.PlanNode, cost float64) *query.PlanNode {
	if len(t.nodes) == cap(t.nodes) {
		panic("plan: sub-plan table outgrew its slab")
	}
	t.nodes = append(t.nodes, n)
	t.cost = append(t.cost, cost)
	return &t.nodes[len(t.nodes)-1]
}

// candidates fills t.ranked with q's candidate plans, in enumeration
// order, and their intermediate rates.
//
// Exhaustive enumeration and the beam DP are the same subset dynamic
// program: for every leaf set, in increasing mask order, join each
// sub-plan of a left part with each sub-plan of the complementary right
// part. Keeping the set's lowest leaf on the left generates every
// unordered tree exactly once, so no two sub-plans (and no two
// candidate plans) share a signature. The beam keeps only the BeamWidth
// cheapest per set; cost is cumulative intermediate rate, additive over
// subtrees, so the beam is a high-quality heuristic (exact when it
// covers all distinct subtree rates).
func (e *Enumerator) candidates(t *Table, q query.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	c := e.Catalog
	if c == nil {
		return fmt.Errorf("plan: enumerator has no catalog")
	}
	for _, s := range q.Streams {
		if c.Rate(s) <= 0 {
			return fmt.Errorf("plan: stream %d not in catalog", s)
		}
	}
	k, beam, maxEx := len(q.Streams), 0, e.MaxExhaustive
	if maxEx <= 0 {
		maxEx = 6
	}
	if k > maxEx {
		if k > 20 {
			return fmt.Errorf("plan: %d streams exceeds DP limit of 20", k)
		}
		if beam = e.BeamWidth; beam < 1 {
			beam = 3
		}
	}

	full := 1<<k - 1
	need := k + len(q.FilterSel)
	for mask := 1; mask <= full; mask++ {
		if mask&(mask-1) != 0 {
			need += subPlans(bits.OnesCount(uint(mask)), beam)
		}
	}
	if q.AggregateFraction > 0 {
		need += subPlans(k, beam)
	}
	if cap(t.nodes) < need {
		t.nodes, t.cost = make([]query.PlanNode, 0, need), make([]float64, 0, need)
	}
	if len(t.span) <= full {
		t.span = make([][2]int, full+1)
	}
	t.nodes, t.cost = t.nodes[:0], t.cost[:0]

	for i, s := range q.Streams {
		leaf := t.add(query.PlanNode{Kind: query.KindSource, Stream: s, OutRate: c.Rate(s)}, 0)
		if sel, ok := q.FilterSel[s]; ok {
			// A pushed-down filter is a service too: it has a cost.
			f := query.PlanNode{Kind: query.KindFilter, Sel: sel, Left: leaf}
			if err := f.Rate(c); err != nil {
				return err
			}
			t.add(f, f.OutRate)
		}
		t.span[1<<i] = [2]int{len(t.nodes) - 1, len(t.nodes)}
	}
	for mask := 1; mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		lowest := mask & -mask
		rest := mask ^ lowest
		// The left part is the lowest leaf plus a proper subset x of the
		// rest. Both historical orders are kept, because ties are broken
		// by position: exhaustive enumeration walks x upwards, the beam
		// DP downwards.
		x, last := 0, (rest-1)&rest
		if beam > 0 {
			x, last = last, 0
		}
		t.cands = t.cands[:0]
		for {
			l, r := t.span[lowest|x], t.span[rest^x]
			for li := l[0]; li < l[1]; li++ {
				for ri := r[0]; ri < r[1]; ri++ {
					j := query.PlanNode{Kind: query.KindJoin, Left: &t.nodes[li], Right: &t.nodes[ri]}
					if err := j.Rate(c); err != nil {
						return err
					}
					t.cands = append(t.cands, candidate{j, t.cost[li] + t.cost[ri] + j.OutRate})
				}
			}
			if x == last {
				break
			}
			if beam > 0 {
				x = (x - 1) & rest
			} else {
				x = (x - rest) & rest
			}
		}
		if beam > 0 {
			sort.Slice(t.cands, func(i, j int) bool { return t.cands[i].cost < t.cands[j].cost })
			t.cands = t.cands[:min(beam, len(t.cands))]
		}
		lo := len(t.nodes)
		for _, cd := range t.cands {
			t.add(cd.node, cd.cost)
		}
		t.span[mask] = [2]int{lo, len(t.nodes)}
	}

	rk := &t.ranked
	rk.plans, rk.keys = rk.plans[:0], rk.keys[:0]
	roots := t.span[full]
	for i := roots[0]; i < roots[1]; i++ {
		root := &t.nodes[i]
		if q.AggregateFraction > 0 {
			agg := query.PlanNode{Kind: query.KindAggregate, Sel: q.AggregateFraction, Left: root}
			if err := agg.Rate(c); err != nil {
				return err
			}
			root = t.add(agg, 0)
		}
		rk.plans = append(rk.plans, root)
		rk.keys = append(rk.keys, root.IntermediateRate())
	}
	return nil
}
