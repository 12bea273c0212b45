// Package exp contains the experiment harness that regenerates every
// figure of the paper and the ablations and scenarios this repository
// adds to them. Each experiment is a pure function from parameters to a
// Table, run on its parameters exactly as given; its Default…Params(scale)
// is the one place that writes its values, for both scales, and the knobs
// no caller varies are constants beside it. Run prints the tables of All
// (cmd/sbon-exp is its front end) and the root benchmarks time them.
//
// The artifacts (All's list; golden_test.go pins the bytes of each at
// Small scale and, under SBON_FULLSCALE=1, at Full):
//
//	fig1  two-step vs integrated optimization (network usage)
//	fig2  the ~600-node transit-stub network embedded in a cost space
//	fig3  virtual placement, then physical mapping: the mapping error
//	fig4  multi-query reuse pruned to a cost-space radius
//	x1    placement strategies on the same plans
//	x2    Vivaldi embedding error against update rounds
//	x3    Hilbert-DHT mapping error against the exact nearest node
//	x4    local re-optimization under load churn
//	x5    Chord lookup hops against ring size
//	x6    optimization time against network size
//	x7    spring relaxation against direct geometric-median placement
//	x8    the analytic cost model against the executing data plane
//	x9    online plan rewriting of running circuits
//	x10   precomputed plan banks against re-optimization
//	x11   a thousand-node overlay executing 200 circuits
//	x12   node churn: drain, kill and rejoin under live traffic
//	x13   continuous incremental adaptation at 1024 nodes
//	x14   shared execution of overlapping queries
//	x15   incremental against full re-planning
//	x16   unplanned failures: detection and repair end to end
//	x17   the 16k-node scale scenario (sharded batch, gossip coordinates)
//	x18   the 100k-node sharded data plane
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of experiment results.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are free-form lines printed under the table (e.g. summary
	// statistics or expected shapes). They are deterministic: a run
	// repeats them byte for byte, and the goldens pin them.
	Notes []string
	// HostNotes are the lines that report the host rather than the
	// simulation (wall time, queries per host second). They print after
	// Notes and are left out of every golden.
	HostNotes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, formatting each value: floats as %.4g, everything
// else via %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddHostNote appends a host note line.
func (t *Table) AddHostNote(format string, args ...any) {
	t.HostNotes = append(t.HostNotes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, n := range t.HostNotes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV emits the table (header + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("exp: write csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("exp: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
