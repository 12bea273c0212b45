// Command sbon-exp regenerates every figure of the paper (F1–F4) and the
// ablation experiments (X1–X8) as text tables, optionally exporting CSVs
// for plotting.
//
// Usage:
//
//	sbon-exp                     # run everything at full (paper) scale
//	sbon-exp -run fig1,fig4      # selected experiments
//	sbon-exp -scale small        # fast, reduced-size run
//	sbon-exp -outdir results/    # also write one CSV per experiment
//	sbon-exp -list               # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hourglass/sbon/internal/exp"
)

func main() {
	var (
		runList = flag.String("run", "", "comma-separated experiment IDs (empty = all)")
		scale   = flag.String("scale", "full", "experiment scale: full | small")
		outDir  = flag.String("outdir", "", "directory for CSV exports (optional)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sbon-exp: unexpected argument %q: experiments are chosen with -run\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Println(e.ID)
		}
		return
	}

	var s exp.Scale
	switch strings.ToLower(*scale) {
	case "full":
		s = exp.Full
	case "small":
		s = exp.Small
	default:
		fmt.Fprintf(os.Stderr, "sbon-exp: unknown scale %q (want full or small)\n", *scale)
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sbon-exp: %v\n", err)
			os.Exit(1)
		}
	}

	var ids []string
	if *runList != "" {
		ids = strings.Split(*runList, ",")
	}
	if err := exp.Run(os.Stdout, ids, exp.RunOptions{Scale: s, OutDir: *outDir}); err != nil {
		fmt.Fprintf(os.Stderr, "sbon-exp: %v\n", err)
		os.Exit(1)
	}
}
