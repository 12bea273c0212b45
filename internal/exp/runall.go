package exp

import (
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
		{"fig1", func(s Scale) (*Table, error) { p := DefaultFig1Params(); p.Scale = s; return Fig1(p) }},
		{"fig2", func(s Scale) (*Table, error) { p := DefaultFig2Params(); p.Scale = s; return Fig2(p) }},
		{"fig3", func(s Scale) (*Table, error) { p := DefaultFig3Params(); p.Scale = s; return Fig3(p) }},
		{"fig4", func(s Scale) (*Table, error) { p := DefaultFig4Params(); p.Scale = s; return Fig4(p) }},
		{"x1", func(s Scale) (*Table, error) { p := DefaultX1Params(); p.Scale = s; return X1(p) }},
		{"x2", func(s Scale) (*Table, error) { p := DefaultX2Params(); p.Scale = s; return X2(p) }},
		{"x3", func(s Scale) (*Table, error) { p := DefaultX3Params(); p.Scale = s; return X3(p) }},
		{"x4", func(s Scale) (*Table, error) { p := DefaultX4Params(); p.Scale = s; return X4(p) }},
		{"x5", func(s Scale) (*Table, error) { return X5(DefaultX5Params()) }},
		{"x6", func(s Scale) (*Table, error) {
			p := DefaultX6Params()
			if s == Small {
				p.StubSizes = []int{1, 3}
			}
			return X6(p)
		}},
		{"x7", func(s Scale) (*Table, error) { p := DefaultX7Params(); p.Scale = s; return X7(p) }},
		{"x8", func(s Scale) (*Table, error) {
			p := DefaultX8Params()
			if s == Small {
				p.RunFor = 700 * time.Millisecond
			}
			return X8(p)
		}},
		{"x11", func(s Scale) (*Table, error) {
			p := DefaultX11Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Queries = 30
				p.SimSeconds = 2
			}
			return X11(p)
		}},
		{"x12", func(s Scale) (*Table, error) {
			p := DefaultX12Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Queries = 12
				p.WarmupSimSeconds = 2
			}
			return X12(p)
		}},
		{"x13", func(s Scale) (*Table, error) {
			p := DefaultX13Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Queries = 30
				p.Budget = 6
				p.IntervalSimSeconds = 1
				p.WarmupSimSeconds = 2
			}
			return X13(p)
		}},
		{"x14", func(s Scale) (*Table, error) {
			p := DefaultX14Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Groups = 8
				p.PerGroup = 3
				p.MeasureSimSeconds = 2
			}
			return X14(p)
		}},
		{"x15", func(s Scale) (*Table, error) {
			p := DefaultX15Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Queries = 40
			}
			return X15(p)
		}},
		{"x16", func(s Scale) (*Table, error) {
			p := DefaultX16Params()
			if s == Small {
				p.StubNodes = 5 // 256 nodes
				p.Queries = 30
				p.WarmupSimSeconds = 2
				p.CrashSpreadSimSeconds = 2
				p.RunSimSeconds = 6
			}
			return X16(p)
		}},
		{"x17", func(s Scale) (*Table, error) {
			p := DefaultX17Params()
			if s == Small {
				p.StubsPerTransit = 8
				p.StubNodes = 8 // 1040 nodes
				p.Queries = 2000
				p.EngineCircuits = 64
				p.TickerWarmRounds = 20
				p.Rounds = 2
			}
			return X17(p)
		}},
		{"x18", func(s Scale) (*Table, error) {
			p := DefaultX18Params()
			if s == Small {
				p.StubsPerTransit = 8
				p.StubNodes = 8 // 4160 nodes
				p.Streams = 32
				p.Queries = 2000
				p.EngineCircuits = 64
				p.TickerWarmRounds = 10
			}
			return X17(p)
		}},
		{"x9", func(s Scale) (*Table, error) {
			p := DefaultX9Params()
			p.Scale = s
			if s == Small {
				p.Seeds = 4
			}
			return X9(p)
		}},
		{"x10", func(s Scale) (*Table, error) {
			p := DefaultX10Params()
			p.Scale = s
			if s == Small {
				p.Seeds = 3
			}
			return X10(p)
		}},
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

// RunOptions controls Run/RunAll output.
type RunOptions struct {
	Scale Scale
	// OutDir, when non-empty, receives one CSV per experiment (and the
	// fig2 point cloud).
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
		if e.ID == "fig2" && opts.OutDir != "" {
			// fig2 additionally dumps its point cloud.
			f, ferr := os.Create(filepath.Join(opts.OutDir, "fig2_points.csv"))
			if ferr != nil {
				return ferr
			}
			p := DefaultFig2Params()
			p.Scale = opts.Scale
			p.PointsCSV = f
			table, err = Fig2(p)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		} else {
			table, err = e.Run(opts.Scale)
		}
		if err != nil {
			return fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		table.AddNote("experiment %s completed in %v", e.ID, time.Since(start).Round(time.Millisecond))
		table.Fprint(w)
		if opts.OutDir != "" {
			f, err := os.Create(filepath.Join(opts.OutDir, e.ID+".csv"))
			if err != nil {
				return err
			}
			if err := table.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
