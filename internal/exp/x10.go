package exp

import "github.com/hourglass/sbon/internal/optimizer"

// x10States are the hypothetical-network-state counts to sweep.
var x10States = []int{1, 2, 4, 8}

// X10Params configures the precomputed-plan-bank comparison.
type X10Params struct {
	Scale Scale
	Seeds int
}

// DefaultX10Params returns the configuration at scale s.
func DefaultX10Params(s Scale) X10Params {
	p := X10Params{Scale: s, Seeds: 8}
	if s == Small {
		p.Seeds = 3
	}
	return p
}

// X10 quantifies §2.3's critique of precomputed dynamic plans (Graefe &
// Ward [13]): a plan bank compiled under K hypothetical network states is
// compared against two-step (K=0 information) and the integrated
// optimizer (full information) on the Figure 1 workload. The bank
// narrows the gap as K grows — at the cost of guessing the right states
// in advance, which is exactly the limitation the paper calls out.
func X10(p X10Params) (*Table, error) {
	t := NewTable("X10 — precomputed plan banks (Graefe–Ward) vs two-step and integrated",
		"seed", "two-step", "bank K=1", "bank K=2", "bank K=4", "bank K=8",
		"integrated", "distinct plans @K=8")

	type acc struct{ two, integ float64 }
	var sums acc
	bankSums := make([]float64, len(x10States))

	for seed := int64(1); seed <= int64(p.Seeds); seed++ {
		fs, err := newFig1Seed(p.Scale, seed)
		if err != nil {
			return nil, err
		}
		truth := fs.truth
		u2 := fs.two.Circuit.NetworkUsage(truth)
		ui := fs.integ.Circuit.NetworkUsage(truth)
		sums.two += u2
		sums.integ += ui

		row := []any{seed, u2}
		distinct := 0
		for i, k := range x10States {
			pb := optimizer.NewPlanBank(fs.env)
			pb.Mapper = fs.mapper
			pb.Model = truth
			n, err := pb.Compile(fs.q, k, 0.6)
			if err != nil {
				return nil, err
			}
			res, err := pb.Optimize(fs.q)
			if err != nil {
				return nil, err
			}
			ub := res.Circuit.NetworkUsage(truth)
			bankSums[i] += ub
			row = append(row, ub)
			distinct = n
		}
		row = append(row, ui, distinct)
		t.AddRow(row...)
	}
	n := float64(p.Seeds)
	t.AddNote("mean usage: two-step %.4g; banks %v; integrated %.4g",
		sums.two/n, meansOf(bankSums, n), sums.integ/n)
	t.AddNote("expected shape: bank usage falls toward integrated as K grows, but only integration (which places *every* candidate under live state) closes the gap without guessing future states (§2.3)")
	return t, nil
}

func meansOf(sums []float64, n float64) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = float64(int(s/n*10)) / 10
	}
	return out
}
