// Command bench is the repository's benchmark: five workloads built
// from the layers' public functions, timed from outside in slices of
// fixed work, with output checks, a host fingerprint, and — in the
// traced pass — a span recorder, a CPU profile split by layer and a
// ladder of rungs that run each layer alone. See README.md.
//
//	bench/run.sh --workload <name> --seed <n> [--seconds 14] [--trace 0|1] [--scale smoke] [--out runs.jsonl]
//	bench/run.sh --selfcheck [--runs 5] [--seeds 29,1031] [--out bench/NOISE.md]
//	bench/run.sh --compare a.jsonl b.jsonl
//	bench/run.sh --describe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

const (
	defaultSeed = 29
	heldOutSeed = 1031
)

func main() {
	start := time.Now()
	var (
		workload  = flag.String("workload", "", "workload to run (see --describe)")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", referenceSeconds, "length of the timed region on the reference host; sets the slice count")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics; 0 prints the end-to-end metrics")
		scale     = flag.String("scale", "full", "full, or smoke (every size about 50x smaller, for tests)")
		out       = flag.String("out", "", "append the run's full result as one JSON line to this file (with --selfcheck: write the noise report here)")
		describe  = flag.Bool("describe", false, "print the workloads and every metric as JSON and exit")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of every workload on this build and compare them")
		runs      = flag.Int("runs", 5, "with --selfcheck: runs per set")
		seeds     = flag.String("seeds", fmt.Sprintf("%d,%d", defaultSeed, heldOutSeed), "with --selfcheck: comma-separated seeds")
		compare   = flag.Bool("compare", false, "compare two files of results written with --out: bench --compare a.jsonl b.jsonl")
	)
	flag.Parse()

	var err error
	switch {
	case *describe:
		err = writeDescription(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = runSelfcheck(os.Stdout, *runs, *seeds, *seconds, *out)
	default:
		if *scale != "full" && *scale != "smoke" {
			err = fmt.Errorf("unknown scale %q", *scale)
			break
		}
		if *seconds < 1 || *seconds > 60 {
			err = fmt.Errorf("--seconds %d outside 1..60", *seconds)
			break
		}
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			smoke: *scale == "smoke", outDir: "bench/out"}
		var fr *fullResult
		if fr, err = runWorkload(cfg, start); err != nil {
			break
		}
		def, _ := findWorkload(cfg.workload)
		if err = fr.print(os.Stdout, def.native); err != nil {
			break
		}
		if *out != "" {
			err = appendResult(*out, fr)
		}
		if err == nil && !fr.Correct {
			os.Exit(2) // the result line is printed; the exit code says it is wrong
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func appendResult(path string, fr *fullResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(fr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// description is what --describe prints: BENCHMARK.json's tables with
// the fields its schema has no room for (kind, definition, expected
// movers, frozen sizes, seeds).
type description struct {
	Command          []string       `json:"command"`
	DefaultSeed      int64          `json:"default_seed"`
	HeldOutSeed      int64          `json:"held_out_seed"`
	ReferenceSeconds int            `json:"reference_seconds"`
	Workloads        []workloadDesc `json:"workloads"`
	EndToEnd         []metricSpec   `json:"end_to_end"`
	PerLayer         []metricSpec   `json:"per_layer"`
}

type workloadDesc struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Unit   string `json:"work_unit"`
	Native string `json:"work_per_s_is"`
	Slices int    `json:"slices"`
	Sizes  any    `json:"sizes"`
}

func writeDescription(w io.Writer) error {
	d := description{
		Command:     []string{"bash", "bench/run.sh"},
		DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed, ReferenceSeconds: referenceSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, def := range workloads {
		d.Workloads = append(d.Workloads, workloadDesc{
			Name: def.name, Why: def.why, Unit: def.unit, Native: def.native,
			Slices: referenceSeconds, Sizes: def.sizes(fullSizes),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
