package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// readResults loads a file of full results, one JSON object per line.
func readResults(path string) ([]fullResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []fullResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var fr fullResult
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, fr)
	}
	return out, sc.Err()
}

// series collects, per workload and metric, the values of a set of runs
// in run order.
func series(results []fullResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, fr := range results {
		m := out[fr.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[fr.Workload] = m
		}
		for name, v := range fr.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// verdict applies the guide's rule to paired runs of a and b (the i-th
// run of one against the i-th of the other): b is better only when it
// wins at least nine tenths of the pairs, ties counting for neither,
// and the medians differ by more than a's own interquartile range.
func verdict(a, b []float64, better string) string {
	n := min(len(a), len(b))
	if n == 0 {
		return "unresolved"
	}
	var bWins, aWins int
	for i := 0; i < n; i++ {
		switch {
		case a[i] == b[i]:
		case (b[i] < a[i]) == (better == "lower"):
			bWins++
		default:
			aWins++
		}
	}
	q1, q3 := quartiles(a)
	beyond := math.Abs(median(b)-median(a)) > q3-q1
	switch {
	case beyond && float64(bWins) >= 0.9*float64(n):
		return "better"
	case beyond && float64(aWins) >= 0.9*float64(n):
		return "worse"
	}
	return "unresolved"
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles and the verdict on b against a.
func compareFiles(w io.Writer, pathA, pathB string) error {
	ra, err := readResults(pathA)
	if err != nil {
		return err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return err
	}
	sa, sb := series(ra), series(rb)
	fmt.Fprintf(w, "%-17s %-30s %4s %14s %14s %14s | %14s %14s %14s | %8s %s\n",
		"workload", "metric", "n", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "b/a-1", "verdict")
	for _, def := range workloads {
		for _, spec := range allSpecs() {
			a, b := sa[def.name][spec.Name], sb[def.name][spec.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			fmt.Fprintf(w, "%-17s %-30s %4d %14.6g %14.6g %14.6g | %14.6g %14.6g %14.6g | %+8.4f %s\n",
				def.name, spec.Name, min(len(a), len(b)), aq1, median(a), aq3, bq1, median(b), bq3,
				ratio(median(b), median(a))-1, verdict(a, b, spec.Better))
		}
	}
	return nil
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// selfcheckTarget is the issue's target for the noise floor: medians of
// two sets of runs of one build within 5%. The report counts the
// host-measured pairs that meet it; the check fails a pair at half the
// metric's bound.
const selfcheckTarget = 0.05

// runSelfcheck is the A/A test: two interleaved sets (ABAB...) of every
// workload on this one build. The sets run identical code, so any
// difference between them is the harness's own noise floor. It fails
// when a host-measured median differs between the sets by more than
// half the metric's bound, or a simulated metric differs at all.
func runSelfcheck(w io.Writer, runs int, seedList string, seconds int, reportPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("--runs %d: need at least 2 per set", runs)
	}
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("--seeds: %w", err)
		}
		seeds = append(seeds, v)
	}
	if err := os.MkdirAll("bench/out", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("bench/out", "selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var md strings.Builder
	host := readHost(setProcs())
	fmt.Fprintf(&md, "# Noise floor of the benchmark (A/A self-check)\n\n")
	fmt.Fprintf(&md, "Written by `bench/run.sh --selfcheck --runs %d --seeds %s --seconds %d`. Two sets, A and B, of %d runs each of every workload ran interleaved (ABAB...) on one build, so every difference below is noise of the harness and the host, not of the code. A host-measured (H) pair passes when the two sets' medians differ by at most half the metric's bound (the last line counts those within the 5%% the issue aims for); a simulated (S) pair passes only when every run of both sets printed the same value.\n\n",
		runs, seedList, seconds, runs)
	fmt.Fprintf(&md, "Host: %d cpu, GOMAXPROCS %d, %s, %s, commit %s.\n\n", host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit)

	failed, hostPairs, onTarget := 0, 0, 0
	for _, seed := range seeds {
		fmt.Fprintf(&md, "## Seed %d\n\n", seed)
		fmt.Fprintf(&md, "| workload | metric | kind | A median | A q1..q3 | A IQR/median | B median | B q1..q3 | B IQR/median | A/A delta | limit | |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, def := range workloads {
			files := [2]string{filepath.Join(tmp, fmt.Sprintf("%s-%d-a.jsonl", def.name, seed)), filepath.Join(tmp, fmt.Sprintf("%s-%d-b.jsonl", def.name, seed))}
			disturbed := 0
			for i := 0; i < 2*runs; i++ {
				cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", files[i%2])
				cmd.Stderr = os.Stderr
				// A run whose outputs are wrong exits non-zero: the check stops.
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("selfcheck: %s seed %d run %d: %w", def.name, seed, i, err)
				}
				fmt.Fprintf(w, "selfcheck: %s seed %d run %d/%d done\n", def.name, seed, i+1, 2*runs)
			}
			ra, err := readResults(files[0])
			if err != nil {
				return err
			}
			rb, err := readResults(files[1])
			if err != nil {
				return err
			}
			for _, fr := range append(append([]fullResult{}, ra...), rb...) {
				if fr.Host.Disturbed {
					disturbed++
				}
				if fr.DetFingerprint != ra[0].DetFingerprint {
					failed++
					fmt.Fprintf(&md, "| %s | det_fingerprint | S | %s | | | %s | | | | 0 | FAIL |\n", def.name, ra[0].DetFingerprint, fr.DetFingerprint)
				}
			}
			sa, sb := series(ra)[def.name], series(rb)[def.name]
			for _, spec := range endToEnd {
				a, b := sa[spec.Name], sb[spec.Name]
				aq1, aq3 := quartiles(a)
				bq1, bq3 := quartiles(b)
				delta := math.Abs(ratio(median(b), median(a)) - 1)
				limit := spec.Bound / 2
				ok := delta <= limit
				if spec.Kind == kindS {
					limit = 0
					ok = allEqual(append(append([]float64{}, a...), b...))
				} else {
					hostPairs++
					if delta <= selfcheckTarget {
						onTarget++
					}
				}
				mark := "ok"
				if !ok {
					mark = "FAIL"
					failed++
				}
				fmt.Fprintf(&md, "| %s | %s | %s | %.6g | %.6g..%.6g | %.4f | %.6g | %.6g..%.6g | %.4f | %.4f | %.3f | %s |\n",
					def.name, spec.Name, spec.Kind, median(a), aq1, aq3, spread(a), median(b), bq1, bq3, spread(b), delta, limit, mark)
			}
			if disturbed > 0 {
				fmt.Fprintf(&md, "| %s | (host) | | | | | | | | | | %d of %d runs flagged disturbed (load average above core count) |\n", def.name, disturbed, 2*runs)
			}
		}
		md.WriteString("\n")
	}
	fmt.Fprintf(&md, "%d of %d host-measured pairs agree within %.0f%%.\n\n", onTarget, hostPairs, 100*selfcheckTarget)
	if failed == 0 {
		md.WriteString("Result: every pair passed.\n")
	} else {
		fmt.Fprintf(&md, "Result: %d pairs FAILED.\n", failed)
	}
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(md.String()), 0o644); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, md.String()); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d pairs failed", failed)
	}
	return nil
}
