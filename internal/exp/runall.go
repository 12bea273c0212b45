package exp

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Experiment is one runnable figure/ablation.
type Experiment struct {
	// ID is the short name used by -run flags ("fig1", "x3", ...).
	ID string
	// Run executes the experiment at the given scale.
	Run func(scale Scale) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig1", func(s Scale) (*Table, error) { return Fig1(DefaultFig1Params(s)) }},
		{"fig2", func(s Scale) (*Table, error) { return Fig2(DefaultFig2Params(s)) }},
		{"fig3", func(s Scale) (*Table, error) { return Fig3(DefaultFig3Params(s)) }},
		{"fig4", func(s Scale) (*Table, error) { return Fig4(DefaultFig4Params(s)) }},
		{"x1", func(s Scale) (*Table, error) { return X1(DefaultX1Params(s)) }},
		{"x2", func(s Scale) (*Table, error) { return X2(DefaultX2Params(s)) }},
		{"x3", func(s Scale) (*Table, error) { return X3(DefaultX3Params(s)) }},
		{"x4", func(s Scale) (*Table, error) { return X4(DefaultX4Params(s)) }},
		{"x5", func(s Scale) (*Table, error) { return X5(DefaultX5Params(s)) }},
		{"x6", func(s Scale) (*Table, error) { return X6(DefaultX6Params(s)) }},
		{"x7", func(s Scale) (*Table, error) { return X7(DefaultX7Params(s)) }},
		{"x8", func(s Scale) (*Table, error) { return X8(DefaultX8Params(s)) }},
		{"x11", func(s Scale) (*Table, error) { return X11(DefaultX11Params(s)) }},
		{"x12", func(s Scale) (*Table, error) { return X12(DefaultX12Params(s)) }},
		{"x13", func(s Scale) (*Table, error) { return X13(DefaultX13Params(s)) }},
		{"x14", func(s Scale) (*Table, error) { return X14(DefaultX14Params(s)) }},
		{"x15", func(s Scale) (*Table, error) { return X15(DefaultX15Params(s)) }},
		{"x16", func(s Scale) (*Table, error) { return X16(DefaultX16Params(s)) }},
		{"x17", func(s Scale) (*Table, error) { return X17(DefaultX17Params(s)) }},
		{"x18", func(s Scale) (*Table, error) { return X17(DefaultX18Params(s)) }},
		{"x9", func(s Scale) (*Table, error) { return X9(DefaultX9Params(s)) }},
		{"x10", func(s Scale) (*Table, error) { return X10(DefaultX10Params(s)) }},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunOptions controls Run's output.
type RunOptions struct {
	Scale Scale
	// OutDir, when non-empty, receives one CSV per experiment (and the
	// fig2 point cloud), and beside each CSV its deterministic notes as
	// <id>.notes.txt.
	OutDir string
}

// Run executes the selected experiments (all when ids is empty), printing
// tables to w and optionally writing CSVs.
func Run(w io.Writer, ids []string, opts RunOptions) error {
	exps := All()
	if len(ids) > 0 {
		exps = exps[:0]
		for _, id := range ids {
			e, ok := Lookup(strings.ToLower(strings.TrimSpace(id)))
			if !ok {
				return fmt.Errorf("exp: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		var table *Table
		var err error
		var points bytes.Buffer
		if e.ID == "fig2" {
			// fig2 additionally dumps its point cloud.
			p := DefaultFig2Params(opts.Scale)
			p.PointsCSV = &points
			table, err = Fig2(p)
		} else {
			table, err = e.Run(opts.Scale)
		}
		if err != nil {
			return fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		table.AddHostNote("experiment %s completed in %v", e.ID, time.Since(start).Round(time.Millisecond))
		table.Fprint(w)
		if opts.OutDir == "" {
			continue
		}
		var rows bytes.Buffer
		if err := table.WriteCSV(&rows); err != nil {
			return err
		}
		files := map[string][]byte{
			e.ID + ".csv":       rows.Bytes(),
			e.ID + ".notes.txt": []byte(strings.Join(table.Notes, "\n") + "\n"),
		}
		if e.ID == "fig2" {
			files["fig2_points.csv"] = points.Bytes()
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(opts.OutDir, name), b, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
