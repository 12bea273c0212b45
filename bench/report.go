package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"github.com/hourglass/sbon/internal/optimizer"
)

// report collects one run's metric values and operation counts.
type report struct {
	values map[string]float64

	attempted, failed int
	failures          []string // first few failure messages, for the log

	// fp hashes the simulated statistics and placements of the run: two
	// runs of one seed must print the same det_fingerprint.
	fp fingerprint
}

func newReport() *report {
	return &report{values: map[string]float64{}, fp: fingerprint{h: fnv.New64a()}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// ops counts n attempted operations.
func (r *report) ops(n int) { r.attempted += n }

// fail counts one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted output check and fails it unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

type fingerprint struct {
	h interface {
		io.Writer
		Sum64() uint64
	}
}

// float hashes a statistic to nine significant digits, not to the bit:
// under the sharded clock the lanes add to the engine's float counters
// (usage integrals) concurrently, the order of the additions is the
// scheduler's, and the sums differ in their last bits from run to run.
func (f fingerprint) float(name string, v float64) {
	fmt.Fprintf(f.h, "%s=%.9g;", name, v)
}

// circuits hashes every (query, service, host) triple in query order.
func (f fingerprint) circuits(cs []*optimizer.Circuit) {
	sorted := append([]*optimizer.Circuit(nil), cs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Query.ID < sorted[j].Query.ID })
	for _, c := range sorted {
		for i, s := range c.Services {
			fmt.Fprintf(f.h, "%d/%d@%d;", c.Query.ID, i, s.Node)
		}
	}
}

// hostInfo is the host fingerprint carried by every full result.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Disturbed is set when the 1-minute load average exceeds the core
	// count at either end: something else was competing for the host.
	Disturbed bool `json:"disturbed"`
}

func readHost(procs int) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     os.Getenv("SBON_BENCH_COMMIT"),
		LoadStart:  loadAvg1(),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

func (h *hostInfo) finish() {
	h.LoadEnd = loadAvg1()
	h.Disturbed = h.LoadStart > float64(h.NumCPU) || h.LoadEnd > float64(h.NumCPU)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0: not disturbed
	return v
}

// cpuSeconds is the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// sliceStats are the diagnostics of the timed region.
type sliceStats struct {
	Count     int     `json:"count"`
	Units     float64 `json:"units_per_slice"`
	MedianS   float64 `json:"median_s"`
	MinS      float64 `json:"min_s"`
	MaxS      float64 `json:"max_s"`
	IQRShare  float64 `json:"iqr_over_median"`
	RegionS   float64 `json:"region_s"`
	UnitLabel string  `json:"unit"`
	// EachS is every timed slice, in order: a trend across them (a heap
	// still growing, windows still filling) shows here.
	EachS []float64 `json:"each_s"`
	// EachCPUS is the process CPU time (user plus system, all threads)
	// each slice used. CPU over wall is how many cores a slice kept busy;
	// a slice whose wall time grew while its CPU time did not was
	// descheduled, not slowed.
	EachCPUS []float64 `json:"each_cpu_s"`
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fullResult is everything one run learned: what --out appends to a
// file and what --compare and --selfcheck read back.
type fullResult struct {
	Workload       string                 `json:"workload"`
	Seed           int64                  `json:"seed"`
	Scale          string                 `json:"scale"`
	Traced         bool                   `json:"traced"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Failures       []string               `json:"failures,omitempty"`
	DetFingerprint string                 `json:"det_fingerprint"`
	Metrics        map[string]metricValue `json:"metrics"`
	Slices         sliceStats             `json:"slices"`
	// OtherCPU splits the traced run's cpu_share.other by package.
	OtherCPU map[string]float64 `json:"cpu_share_other,omitempty"`
	WallS    float64            `json:"wall_s"`
	Host     hostInfo           `json:"host"`
}

// driverLine is the object the acceptance driver reads from the last
// line of standard output: exactly these four keys.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emitted selects the values of the metrics a run prints.
func emitted(values map[string]float64, specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}

// print writes the human-readable table and, last, the driver's line.
func (fr *fullResult) print(w io.Writer, nativeName string) error {
	specs := specsFor(fr.Traced)
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  traced %v\n", fr.Workload, fr.Seed, fr.Scale, fr.Traced)
	fmt.Fprintf(w, "host: %d cpu, GOMAXPROCS %d, %s, %s, commit %s, load %.2f -> %.2f%s\n",
		fr.Host.NumCPU, fr.Host.GOMAXPROCS, fr.Host.GoVersion, fr.Host.CPUModel, fr.Host.Commit,
		fr.Host.LoadStart, fr.Host.LoadEnd, map[bool]string{true: "  DISTURBED", false: ""}[fr.Host.Disturbed])
	fmt.Fprintf(w, "timed region: %d slices x %g %s, %.2f s; slice median %.3f s, min %.3f, max %.3f, IQR/median %.3f\n",
		fr.Slices.Count, fr.Slices.Units, fr.Slices.UnitLabel, fr.Slices.RegionS,
		fr.Slices.MedianS, fr.Slices.MinS, fr.Slices.MaxS, fr.Slices.IQRShare)
	fmt.Fprintf(w, "slices: %.3f s\n", fr.Slices.EachS)
	fmt.Fprintf(w, "slice cpu: %.3f s\n", fr.Slices.EachCPUS)
	fmt.Fprintf(w, "wall %.1f s\n", fr.WallS)
	layer := ""
	for _, s := range specs {
		if s.Layer != layer {
			layer = s.Layer
			fmt.Fprintf(w, "-- %s\n", layer)
		}
		note := ""
		if s.Name == "work_per_s" {
			note = "  (" + nativeName + ")"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-7s %s%s\n", s.Name, fr.Metrics[s.Name].Value, s.Unit, s.Kind, note)
	}
	if len(fr.OtherCPU) > 0 {
		pkgs := make([]string, 0, len(fr.OtherCPU))
		for pkg := range fr.OtherCPU {
			pkgs = append(pkgs, pkg)
		}
		sort.Slice(pkgs, func(i, j int) bool { return fr.OtherCPU[pkgs[i]] > fr.OtherCPU[pkgs[j]] })
		fmt.Fprint(w, "cpu_share.other is")
		for _, pkg := range pkgs {
			fmt.Fprintf(w, " %s %.3f", pkg, fr.OtherCPU[pkg])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (ops_failed_ratio %.6g)\n",
		fr.Attempted, fr.Failed, ratio(float64(fr.Failed), float64(fr.Attempted)))
	for _, f := range fr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "det_fingerprint %s\n", fr.DetFingerprint)
	line, err := json.Marshal(driverLine{Correct: fr.Correct, Attempted: fr.Attempted, Failed: fr.Failed, Metrics: fr.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
