package query

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// referenceSigner is the signer PlanNode had before a signed tree shared
// one string: every node signed on its own, recursively, its string
// built from its children's cached strings. It caches in a map instead
// of on the nodes, so it never writes to the tree under test.
type referenceSigner map[*PlanNode]string

func (r referenceSigner) sign(n *PlanNode) string {
	if s, ok := r[n]; ok {
		return s
	}
	var dst []byte
	switch n.Kind {
	case KindSource:
		dst = strconv.AppendInt(append(dst, 's'), int64(n.Stream), 10)
	case KindFilter, KindAggregate:
		op := "filter["
		if n.Kind == KindAggregate {
			op = "agg["
		}
		dst = appendSel(append(dst, op...), n.Sel)
		dst = append(append(append(dst, "]("...), r.sign(n.Left)...), ')')
	case KindJoin, KindUnion:
		a, b := r.sign(n.Left), r.sign(n.Right)
		if a > b {
			a, b = b, a
		}
		op := "join("
		if n.Kind == KindUnion {
			op = "union("
		}
		dst = append(append(append(append(append(dst, op...), a...), ','), b...), ')')
	default:
		dst = fmt.Appendf(dst, "?%d", n.Kind)
	}
	s := string(dst)
	r[n] = s
	return s
}

// edgeSels are selectivities where %.4g changes its mind: rounding up to
// the next digit, switching to and from exponent form, signed zeros,
// subnormals, the float extremes and the non-finite values.
var edgeSels = []float64{
	0.5, 1, 0.99995, 0.99994999, 0.0001, 0.00009999, 0.000099995, 1e-5,
	9999, 9999.5, 99995, 123456789, 1e21, 1e-300, 0, math.Copysign(0, -1), -1.5,
	math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// signDAG decodes plan nodes from fuzz bytes, each over nodes decoded
// before it, so a node may sit under many parents and both roots: a
// source over any stream id, a filter or aggregate with an edge or raw
// selectivity, a join or union of any two earlier nodes (the same one
// twice, too), or an instruction to sign an earlier node now. A node
// whose signature would pass maxSig bytes is not built.
func signDAG(data []byte, ref referenceSigner) []*PlanNode {
	const maxNodes, maxSig = 40, 2048
	var nodes []*PlanNode
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	pick := func() *PlanNode { return nodes[int(next())%len(nodes)] }
	for len(data) > 0 && len(nodes) < maxNodes {
		op := next() % 8
		if len(nodes) == 0 {
			op = 0
		}
		var n *PlanNode
		switch op {
		case 0, 1:
			n = NewSource(StreamID(int8(next())))
		case 2, 3:
			sel := edgeSels[int(next())%len(edgeSels)]
			if op == 3 {
				var bits uint64
				for i := 0; i < 8; i++ {
					bits = bits<<8 | uint64(next())
				}
				sel = math.Float64frombits(bits)
			}
			if next()%2 == 0 {
				n = NewFilter(pick(), sel)
			} else {
				n = NewAggregate(pick(), sel)
			}
		case 4, 5:
			n = NewJoin(pick(), pick())
		case 6:
			n = NewUnion(pick(), pick())
		case 7:
			pick().Signature()
			continue
		}
		if len(ref.sign(n)) > maxSig {
			continue
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// unsign drops the cached signature of every node under n.
func unsign(n *PlanNode) {
	if n != nil {
		n.sig = ""
		unsign(n.Left)
		unsign(n.Right)
	}
}

// FuzzSignTreeMatchesReference holds the one-string signer to the
// recursive per-node signer it replaced: after two roots that share
// nodes are signed, in either order and over subtrees that may already
// be signed, every node's signature is the reference's, the roots'
// match the fmt-based format, and signing an unsigned root costs one
// string.
func FuzzSignTreeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 0, 1, 0, 2, 4, 2, 1, 6, 3, 0})
	f.Add([]byte{1, 0, 5, 0, 7, 2, 0, 1, 0, 4, 3, 2, 1, 5, 3, 0, 4, 5, 4, 7, 2, 4, 6, 6, 2})
	f.Add([]byte{2, 0, 250, 3, 0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 5, 2, 1, 4, 3, 3, 4, 4, 2, 5, 6, 6, 5, 4, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ref := referenceSigner{}
		nodes := signDAG(data[1:], ref)
		if len(nodes) == 0 {
			return
		}
		a, b := nodes[len(nodes)-1], nodes[int(data[0])%len(nodes)]
		if data[0]&0x80 != 0 {
			a, b = b, a
		}
		for _, root := range []*PlanNode{a, b} {
			if got, want := root.Signature(), signatureSlow(root); got != want {
				t.Fatalf("root signature %q, fmt reference %q", got, want)
			}
		}
		check := func(when string) {
			for i, n := range nodes {
				if got, want := n.Signature(), ref.sign(n); got != want {
					t.Fatalf("%s, node %d: signature %q, reference %q", when, i, got, want)
				}
			}
		}
		check("roots signed")
		if len(ref.sign(a)) > signStack {
			return
		}
		if allocs := testing.AllocsPerRun(5, func() {
			unsign(a)
			a.Signature()
		}); allocs != 1 {
			t.Fatalf("signing an unsigned root of %d bytes cost %v allocations, want 1", len(a.sig), allocs)
		}
		check("root re-signed")
	})
}
