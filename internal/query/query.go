// Package query defines the SBON query model: streams published by pinned
// producers, continuous queries posed by pinned consumers, and logical
// plans — trees of services (operators) that transform the source streams
// into the consumer's result stream.
//
// The model is deliberately agnostic to the data model, like the paper's
// SBON definition: services are characterized by their rate behaviour
// (selectivity) and identity (signature), which is all that plan
// generation, placement, and multi-query reuse need. The stream engine
// (package stream) gives the same operators executable semantics.
//
// # Rate model
//
// Every plan node carries an estimated output rate in KB/s
// (PlanNode.Rate): a source emits its catalog rate; a filter or an
// aggregate emits sel·in, with sel in (0, 1] (for an aggregate, the
// fraction of each window's bytes it emits); a join emits
// sel·(rateL + rateR), where sel is the product of the pairwise
// selectivities across its two sides; a union emits rateL + rateR.
// Rates stay in linear KB/s, which is what link-level network usage
// Σ rate·latency needs; the relational cross-product model has no
// stable rate unit for unbounded streams. A consequence the placement
// results inherit: a join with sel >= 1 emits at least what it takes
// in, so no host between its inputs and its consumer can beat hosting
// it at the consumer.
package query

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"github.com/hourglass/sbon/internal/topology"
)

// StreamID identifies a published source stream.
type StreamID int

// QueryID identifies a continuous query.
type QueryID int

// ServiceKind enumerates the operator types a plan can contain.
type ServiceKind uint8

// Service kinds.
const (
	// KindSource is a leaf: the stream as published by its producer.
	KindSource ServiceKind = iota
	// KindFilter drops tuples, keeping a fraction equal to its selectivity.
	KindFilter
	// KindJoin is a windowed two-way stream join.
	KindJoin
	// KindAggregate is a windowed aggregate emitting a reduced stream.
	KindAggregate
	// KindUnion merges two streams without reduction.
	KindUnion
)

// String returns the lower-case kind name.
func (k ServiceKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindFilter:
		return "filter"
	case KindJoin:
		return "join"
	case KindAggregate:
		return "aggregate"
	case KindUnion:
		return "union"
	default:
		return fmt.Sprintf("ServiceKind(%d)", uint8(k))
	}
}

// Query is a continuous query: a windowed equi-join over a set of source
// streams, optionally pre-filtered per source and aggregated at the top,
// delivered to a pinned consumer node.
type Query struct {
	ID       QueryID
	Consumer topology.NodeID
	// Streams lists the joined source streams (len >= 1).
	Streams []StreamID
	// FilterSel, if non-nil, gives per-source filter selectivities in
	// (0,1]; sources absent from the map are unfiltered.
	FilterSel map[StreamID]float64
	// AggregateFraction, if > 0, adds a windowed aggregate above the join
	// whose output rate is this fraction of its input rate.
	AggregateFraction float64
}

// Validate reports whether the query is well formed. It does not
// allocate on success: stream sets are a handful of entries, so
// duplicates and filter membership are checked by scanning.
func (q Query) Validate() error {
	if len(q.Streams) == 0 {
		return fmt.Errorf("query %d: no source streams", q.ID)
	}
	for i, s := range q.Streams {
		if q.has(s, i) {
			return fmt.Errorf("query %d: duplicate stream %d", q.ID, s)
		}
	}
	for s, sel := range q.FilterSel {
		if !q.has(s, len(q.Streams)) {
			return fmt.Errorf("query %d: filter on stream %d not in query", q.ID, s)
		}
		if sel <= 0 || sel > 1 {
			return fmt.Errorf("query %d: filter selectivity %v on stream %d out of (0,1]", q.ID, sel, s)
		}
	}
	if q.AggregateFraction < 0 || q.AggregateFraction > 1 {
		return fmt.Errorf("query %d: aggregate fraction %v out of [0,1]", q.ID, q.AggregateFraction)
	}
	return nil
}

// has reports whether s is among the query's first n streams.
func (q Query) has(s StreamID, n int) bool {
	for _, t := range q.Streams[:n] {
		if t == s {
			return true
		}
	}
	return false
}

// Catalog holds the statistics plan generation uses: per-stream data
// rates and producers, and pairwise join selectivities.
//
// The package comment states the rate model they feed.
type Catalog struct {
	rates      map[StreamID]float64
	producers  map[StreamID]topology.NodeID
	pairSel    map[[2]StreamID]float64
	defaultSel float64
}

// NewCatalog returns an empty catalog with the given default pairwise
// join selectivity (used for stream pairs without an explicit entry).
func NewCatalog(defaultSel float64) (*Catalog, error) {
	if defaultSel <= 0 {
		return nil, fmt.Errorf("query: default selectivity %v, need > 0", defaultSel)
	}
	return &Catalog{
		rates:      make(map[StreamID]float64),
		producers:  make(map[StreamID]topology.NodeID),
		pairSel:    make(map[[2]StreamID]float64),
		defaultSel: defaultSel,
	}, nil
}

// AddStream registers a source stream with its producer node and data
// rate in KB/s.
func (c *Catalog) AddStream(s StreamID, producer topology.NodeID, rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("query: stream %d rate %v, need > 0", s, rate)
	}
	if _, ok := c.rates[s]; ok {
		return fmt.Errorf("query: stream %d already registered", s)
	}
	c.rates[s] = rate
	c.producers[s] = producer
	return nil
}

// SetPairSelectivity sets the join selectivity between two streams
// (symmetric).
func (c *Catalog) SetPairSelectivity(a, b StreamID, sel float64) error {
	if sel <= 0 {
		return fmt.Errorf("query: selectivity %v for (%d,%d), need > 0", sel, a, b)
	}
	if a > b {
		a, b = b, a
	}
	c.pairSel[[2]StreamID{a, b}] = sel
	return nil
}

// PairSelectivity returns the join selectivity between streams a and b.
func (c *Catalog) PairSelectivity(a, b StreamID) float64 {
	if a > b {
		a, b = b, a
	}
	if sel, ok := c.pairSel[[2]StreamID{a, b}]; ok {
		return sel
	}
	return c.defaultSel
}

// Rate returns the stream's data rate in KB/s (0 if unknown).
func (c *Catalog) Rate(s StreamID) float64 { return c.rates[s] }

// Producer returns the node that publishes stream s.
func (c *Catalog) Producer(s StreamID) (topology.NodeID, bool) {
	n, ok := c.producers[s]
	return n, ok
}

// Streams returns all registered streams in ascending order.
func (c *Catalog) Streams() []StreamID {
	out := make([]StreamID, 0, len(c.rates))
	for s := range c.rates {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// JoinSelectivity returns the selectivity of joining two disjoint
// sub-plans: the product of pairwise selectivities across the cut, over
// the leaves of both sides in left-to-right order. The order is part of
// the contract — it fixes the rounding of the float product, and plan
// costs are compared bit for bit. The trees are walked in place; nothing
// is allocated.
func (c *Catalog) JoinSelectivity(left, right *PlanNode) float64 {
	return c.selAcross(left, right, 1)
}

// selAcross multiplies sel by the pairwise selectivities between every
// leaf under l and every leaf under r.
func (c *Catalog) selAcross(l, r *PlanNode, sel float64) float64 {
	switch {
	case l == nil:
		return sel
	case l.Kind == KindSource:
		return c.selAgainst(l.Stream, r, sel)
	}
	return c.selAcross(l.Right, r, c.selAcross(l.Left, r, sel))
}

// selAgainst multiplies sel by the selectivities between stream a and
// every leaf under r.
func (c *Catalog) selAgainst(a StreamID, r *PlanNode, sel float64) float64 {
	switch {
	case r == nil:
		return sel
	case r.Kind == KindSource:
		return sel * c.PairSelectivity(a, r.Stream)
	}
	return c.selAgainst(a, r.Right, c.selAgainst(a, r.Left, sel))
}

// PlanNode is one node of a logical plan tree. Leaves are sources;
// interior nodes are services. OutRate is the estimated output data rate
// in KB/s, filled by ComputeRates.
type PlanNode struct {
	Kind ServiceKind
	// Stream is set for KindSource leaves.
	Stream StreamID
	// Sel is the operator's rate factor (filter selectivity, join
	// selectivity across the children's stream sets, or aggregate output
	// fraction). Unused for sources.
	Sel float64
	// Left and Right are the children. Filters and aggregates use Left
	// only.
	Left, Right *PlanNode
	// OutRate is the estimated output rate in KB/s.
	OutRate float64

	// sig caches the canonical signature; empty until the node is
	// signed. Signing a node signs every unsigned node under it, each
	// caching a substring of the one string built for the node. Plan
	// trees are structurally immutable after construction (ComputeRates
	// fills rates and join selectivities, neither of which enters the
	// signature), so the cache never goes stale; Clone copies it, so a
	// clone of a signed plan shares its strings. Code that re-parents a
	// copied node must go through ShallowClone, which drops the cache.
	sig string
}

// NewJoin returns a join of the two children; selectivity is filled by
// ComputeRates from the catalog.
func NewJoin(left, right *PlanNode) *PlanNode {
	return &PlanNode{Kind: KindJoin, Left: left, Right: right}
}

// Leaves returns the source streams under n in left-to-right order.
func (n *PlanNode) Leaves() []StreamID {
	var out []StreamID
	var walk func(p *PlanNode)
	walk = func(p *PlanNode) {
		if p == nil {
			return
		}
		if p.Kind == KindSource {
			out = append(out, p.Stream)
			return
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(n)
	return out
}

// ComputeRates fills OutRate (and join selectivities) bottom-up from the
// catalog. It returns an error for unknown streams or malformed shapes,
// and does not allocate otherwise.
func (n *PlanNode) ComputeRates(c *Catalog) error {
	for _, child := range [2]*PlanNode{n.Left, n.Right} {
		if child != nil {
			if err := child.ComputeRates(c); err != nil {
				return err
			}
		}
	}
	return n.Rate(c)
}

// Rate fills n's own OutRate (and selectivity, for a join) from the
// catalog and its children's rates, which must be current. ComputeRates
// is Rate applied bottom-up; plan enumeration calls it once for every
// sub-plan it constructs.
func (n *PlanNode) Rate(c *Catalog) error {
	switch n.Kind {
	case KindSource:
		r := c.Rate(n.Stream)
		if r <= 0 {
			return fmt.Errorf("query: unknown stream %d in plan", n.Stream)
		}
		n.OutRate = r
	case KindFilter, KindAggregate:
		if n.Left == nil || n.Right != nil {
			return fmt.Errorf("query: %s must have exactly one child", n.Kind)
		}
		if n.Sel <= 0 || n.Sel > 1 {
			return fmt.Errorf("query: %s selectivity %v out of (0,1]", n.Kind, n.Sel)
		}
		n.OutRate = n.Sel * n.Left.OutRate
	case KindJoin, KindUnion:
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("query: %s must have two children", n.Kind)
		}
		n.Sel = 1
		if n.Kind == KindJoin {
			n.Sel = c.JoinSelectivity(n.Left, n.Right)
		}
		n.OutRate = n.Sel * (n.Left.OutRate + n.Right.OutRate)
	default:
		return fmt.Errorf("query: unknown kind %v", n.Kind)
	}
	return nil
}

// Signature returns a canonical string identifying the service and its
// entire upstream sub-plan. Two plan nodes with equal signatures compute
// identical streams, which is the condition for multi-query service reuse
// (§3.4). Join and union children are ordered canonically so mirrored
// trees share a signature.
//
// The first call signs the node: one string, cached, of which every
// unsigned node under it caches its own signature as a substring. Later
// calls, and calls on clones, return it without allocating; as the
// first call writes, a plan must be signed before goroutines share it.
func (n *PlanNode) Signature() string { return n.SignIn(nil) }

// SignIn is Signature with the one string carved from *arena (see
// Carve) instead of allocated, for callers that sign many plans; with a
// nil arena it is Signature.
func (n *PlanNode) SignIn(arena *[]byte) string {
	if n.sig == "" {
		n.sign(arena)
	}
	return n.sig
}

// signStack bounds the signatures sign builds without a heap buffer.
const signStack = 512

// sign builds n's signature and caches it on n and the nodes under it,
// as a string of its own or, with an arena, one carved from it.
func (n *PlanNode) sign(arena *[]byte) {
	var stack [signStack]byte
	buf := n.AppendSignature(stack[:0])
	if arena == nil {
		n.cacheSignature(string(buf), buf)
	} else {
		n.cacheSignature(Carve(arena, buf), buf)
	}
}

// arenaLen is the length of an arena's blocks after its first string,
// which takes an exact block.
const arenaLen = 2048

// Carve copies b into the free tail of *arena, an append-only block of
// bytes (a fresh one when the tail is too short), and returns the copy
// as a string over the block's memory. That is safe because bytes
// handed out are never written again: only Carve appends to *arena, and
// nothing reslices it back. A block stays live while any string carved
// from it does; an arena serves one goroutine.
func Carve(arena *[]byte, b []byte) string {
	if cap(*arena)-len(*arena) < len(b) {
		size := len(b)
		if cap(*arena) > 0 {
			size = max(len(b), arenaLen)
		}
		*arena = make([]byte, 0, size)
	}
	l := len(*arena)
	*arena = append(*arena, b...)
	return unsafe.String(unsafe.SliceData((*arena)[l:]), len(b))
}

// cacheSignature caches s, n's signature, on n and, as substrings of s,
// on every unsigned node under it. buf is scratch for telling which
// child a join or union put first in s; it is returned for reuse.
func (n *PlanNode) cacheSignature(s string, buf []byte) []byte {
	if n.sig != "" {
		return buf
	}
	n.sig = s
	switch n.Kind {
	case KindFilter, KindAggregate:
		return n.Left.cacheSignature(s[strings.Index(s, "](")+2:len(s)-1], buf)
	case KindJoin, KindUnion:
		in := s[strings.IndexByte(s, '(')+1 : len(s)-1]
		buf = n.Left.AppendSignature(buf[:0])
		k := len(buf)
		// s is "op(a,b)", a the lesser: the left child's if it reads so.
		left, right := in[len(in)-k:], in[:len(in)-k-1]
		if in[k] == ',' && in[:k] == string(buf) {
			left, right = in[:k], in[k+1:]
		}
		buf = n.Left.cacheSignature(left, buf)
		return n.Right.cacheSignature(right, buf)
	}
	return buf
}

// AppendSignature appends n's canonical signature to dst and returns the
// extended slice. It writes nothing to the tree: the signatures of signed
// nodes are copied, the rest is built in dst. It is the
// allocation-conscious form of Signature for callers that build
// composite keys.
func (n *PlanNode) AppendSignature(dst []byte) []byte {
	if n.sig != "" {
		return append(dst, n.sig...)
	}
	switch n.Kind {
	case KindSource:
		dst = append(dst, 's')
		return strconv.AppendInt(dst, int64(n.Stream), 10)
	case KindFilter, KindAggregate:
		if n.Kind == KindFilter {
			dst = append(dst, "filter["...)
		} else {
			dst = append(dst, "agg["...)
		}
		dst = append(appendSel(dst, n.Sel), "]("...)
		return append(n.Left.AppendSignature(dst), ')')
	case KindJoin, KindUnion:
		dst = append(append(dst, n.Kind.String()...), '(')
		// Both children in place, then the lesser first: "a,b" becomes
		// "b,a" by reversing the whole and then each part.
		a := len(dst)
		dst = append(n.Left.AppendSignature(dst), ',')
		b := len(dst)
		dst = n.Right.AppendSignature(dst)
		if bytes.Compare(dst[a:b-1], dst[b:]) > 0 {
			slices.Reverse(dst[a:])
			slices.Reverse(dst[a : len(dst)-(b-a)])
			slices.Reverse(dst[len(dst)-(b-a)+1:])
		}
		return append(dst, ')')
	default:
		return fmt.Appendf(dst, "?%d", n.Kind)
	}
}

// appendSel formats a selectivity exactly like fmt's %.4g, which the
// signature format is pinned to.
func appendSel(dst []byte, sel float64) []byte {
	return strconv.AppendFloat(dst, sel, 'g', 4, 64)
}

// String renders the plan tree in infix form for logs.
func (n *PlanNode) String() string {
	var b strings.Builder
	var walk func(p *PlanNode)
	walk = func(p *PlanNode) {
		switch p.Kind {
		case KindSource:
			fmt.Fprintf(&b, "S%d", p.Stream)
		case KindFilter:
			fmt.Fprintf(&b, "σ[%.2g](", p.Sel)
			walk(p.Left)
			b.WriteString(")")
		case KindAggregate:
			fmt.Fprintf(&b, "γ[%.2g](", p.Sel)
			walk(p.Left)
			b.WriteString(")")
		case KindJoin:
			b.WriteString("(")
			walk(p.Left)
			b.WriteString(" ⋈ ")
			walk(p.Right)
			b.WriteString(")")
		case KindUnion:
			b.WriteString("(")
			walk(p.Left)
			b.WriteString(" ∪ ")
			walk(p.Right)
			b.WriteString(")")
		}
	}
	walk(n)
	return b.String()
}

// Clone returns a deep copy of the plan tree. The copy shares the
// original's cached signature strings (structure is identical, so they
// stay correct) and none of its nodes: it is how a plan leaves the shared
// sub-plans of an enumeration.
func (n *PlanNode) Clone() *PlanNode {
	if n == nil {
		return nil
	}
	out := *n
	out.Left = n.Left.Clone()
	out.Right = n.Right.Clone()
	return &out
}

// ShallowClone copies the node without children and with the signature
// cache dropped — the only safe way to duplicate a node that will be
// re-parented over different children (plan rewriting does this).
func (n *PlanNode) ShallowClone() *PlanNode {
	out := *n
	out.Left, out.Right = nil, nil
	out.sig = ""
	return &out
}

// IntermediateRate returns the total estimated data rate of all service
// outputs (the network-oblivious plan cost traditional optimizers
// minimize), summed in post-order. Source leaf rates are excluded: they
// are identical across all plans for the same query.
func (n *PlanNode) IntermediateRate() float64 { return n.addServiceRates(0) }

func (n *PlanNode) addServiceRates(sum float64) float64 {
	if n == nil || n.Kind == KindSource {
		return sum
	}
	return n.Right.addServiceRates(n.Left.addServiceRates(sum)) + n.OutRate
}
