package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// instance is one set-up scenario of a workload, ready for its timed
// slices.
type instance interface {
	// slice runs slice i — a fixed amount of work, the same every slice —
	// and returns how many work units it completed.
	slice(i int) (units float64, err error)
	// finish runs after the timed region: the output checks, the
	// simulated statistics, and (traced) the per-layer metrics that come
	// from the scenario's own state.
	finish() error
	// rungs runs the layers alone on the workload's own inputs (traced
	// runs only, after finish, so they cannot disturb what it checks).
	rungs() error
	// close releases clocks and engines.
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	why  string
	// unit is what one unit of work is, and native the name the
	// throughput goes by outside the uniform work_per_s.
	unit, native string
	// sizes lists the workload's frozen sizes for --describe.
	sizes func(sz sizes) map[string]any
	setup func(c *ctx) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "opt_cold_dht",
		why:  "uncached 3/4/5-way joins on 2k nodes with DHT mapping: plan enumeration, relaxation placement and DHT lookups do the work; cache, k-NN oracle and data plane do none",
		unit: "queries", native: "opt_queries_per_s",
		sizes: func(sz sizes) map[string]any {
			return map[string]any{"nodes": sz.net2k.config().TotalNodes(), "streams": sz.coldStreams,
				"queries_per_batch": sz.coldBatch, "join_widths": "3,4,5 in equal thirds", "cache": "off", "mapping": "DHT"}
		},
		setup: setupOptCold,
	},
	{
		name: "opt_warm_sharded",
		why:  "20k 1-2-stream queries, repeated, on 16k nodes through 16 shards with a warm plan cache: cache hits, k-NN oracle and shard routing dominate; plan enumeration and DHT are bypassed",
		unit: "queries", native: "opt_queries_per_s",
		sizes: func(sz sizes) map[string]any {
			return map[string]any{"nodes": sz.net16k.config().TotalNodes(), "streams": sz.net16kStreams,
				"queries_per_batch": sz.warmQueries, "batches_per_slice": sz.warmBatchesPerSlice, "shards": sz.shards,
				"join_widths": "1-2", "cache": "persistent, warm", "mapping": "oracle"}
		},
		setup: setupOptWarm,
	},
	{
		name: "opt_churn",
		why:  "load drift and coordinate re-sync between small sharded batches on 16k nodes with DHT: the write path of the optimizer's state (epoch bump, cache flush, freeze, index rebuild, republish)",
		unit: "queries", native: "opt_queries_per_s",
		sizes: func(sz sizes) map[string]any {
			return map[string]any{"nodes": sz.net16k.config().TotalNodes(), "streams": sz.net16kStreams,
				"queries_per_round": sz.churnBatch, "rounds_per_slice": sz.churnRoundsPerSlice, "shards": sz.shards,
				"load_drift_per_round": sz.churnDrift, "coordinate_sync_every_rounds": sz.churnSyncEvery, "mapping": "DHT"}
		},
		setup: setupOptChurn,
	},
	{
		name: "flow_steady",
		why:  "640 circuits executing on 16k nodes on one event queue, no faults: stream operators, overlay sends and the single-queue kernel; failure, adapt and DHT idle",
		unit: "msgs", native: "overlay_msgs_per_s",
		sizes: func(sz sizes) map[string]any {
			return map[string]any{"nodes": sz.net16k.config().TotalNodes(), "streams": sz.net16kStreams,
				"circuits": sz.flowCircuits, "join_widths": "2-4, 20% aggregates", "warmup_sim_s": sz.flowWarmSimS,
				"slice_sim_s": sz.flowSliceSim, "event_queues": 1, "mapping": "oracle"}
		},
		setup: setupFlowSteady,
	},
	{
		name: "crash_repair",
		why:  "heartbeats, 1% loss and staggered crashes on 16k nodes over 16 lanes with DHT mapping in the repair loop: sharded kernel, overlay, failure detection and adapt repair; few tuples",
		unit: "msgs", native: "overlay_msgs_per_s",
		sizes: func(sz sizes) map[string]any {
			return map[string]any{"nodes": sz.net16k.config().TotalNodes(), "streams": sz.net16kStreams,
				"circuits": sz.crashCircuits, "join_widths": "2-3", "event_queues": sz.crashDataShards,
				"heartbeat_sim_ms": sz.heartbeatEvery.Milliseconds(), "repair_interval_sim_ms": sz.repairEvery.Milliseconds(),
				"rounds_per_slice": sz.crashRoundsPerSlice, "crashes_per_slice": sz.crashPerSlice,
				"drop_prob": sz.crashDrop, "jitter_ms": sz.crashJitterMs, "load_drift_per_slice": sz.crashDrift,
				"warmup_sim_s": sz.crashWarmSimS, "mapping": "DHT"}
		},
		setup: setupCrashRepair,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string // where the traced run writes its spans
}

const (
	// referenceSeconds is BENCHMARK.json's run_seconds: a slice is sized
	// to about a second on the 2-core reference host, and a run times one
	// slice per second asked for.
	referenceSeconds = 14
	minSlices        = 7
	// untracedSlices is how many slices a traced run times before it
	// switches its spans and CPU profile on; trace_overhead_ratio
	// compares the two groups.
	untracedSlices = 3
)

// sliceCount turns --seconds into a number of slices. The work in a
// slice is fixed, so the timed region is about --seconds long on the
// reference host and longer on a slower one; it is never cut by the
// wall clock, which would make the simulated statistics depend on the
// host.
func sliceCount(cfg runConfig) int {
	if cfg.smoke {
		return 3
	}
	return max(cfg.seconds, minSlices)
}

// runWorkload sets the workload up, times its slices and checks its
// outputs. processStart is when main began, so the first set-up is
// charged with everything before it.
func runWorkload(cfg runConfig, processStart time.Time) (*fullResult, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	procs := setProcs()
	host := readHost(procs)
	sz := fullSizes
	scale := "full"
	if cfg.smoke {
		sz, scale = smokeSizes, "smoke"
	}

	var rec *recorder
	var endRoot func()
	if cfg.trace {
		rec = newRecorder(def.name)
		endRoot = rec.begin("bench.run")
	}

	// A traced run times its first few slices bare, then turns the
	// recorder and the CPU profile on for the rest.
	n := sliceCount(cfg)
	firstCounted := 0
	if cfg.trace {
		firstCounted = untracedSlices
		if cfg.smoke {
			firstCounted = 1
		}
	}

	c := &ctx{seed: cfg.seed, sz: sz, workers: procs, slices: n, rec: rec, rep: newReport()}
	rep := c.rep
	end := c.span("bench.setup")
	inst, err := def.setup(c)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer inst.close()
	rep.set("setup_s", time.Since(processStart).Seconds())

	// The timed region.
	c.rec = nil
	var prof bytes.Buffer
	otherCPU := map[string]float64{} // the traced run's cpu_share.other, by package
	var before, after runtime.MemStats
	durs := make([]float64, 0, n)  // seconds per slice
	cpus := make([]float64, 0, n)  // process CPU seconds per slice
	rates := make([]float64, 0, n) // work units per second, per slice
	var work float64               // work units of the counted slices
	runtime.GC()
	regionStart := time.Now()
	for i := 0; i < n; i++ {
		if i == firstCounted {
			work = 0
			runtime.ReadMemStats(&before)
			if cfg.trace {
				c.rec = rec
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return nil, err
				}
			}
		}
		end := c.span("bench.slice")
		start, cpu0 := time.Now(), cpuSeconds()
		units, err := inst.slice(i)
		durs = append(durs, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		rates = append(rates, units/durs[i])
		work += units
		end()
		if err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("%s: slice %d: %w", def.name, i, err)
		}
	}
	regionS := time.Since(regionStart).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	c.mallocs = float64(after.Mallocs - before.Mallocs)
	rep.set("allocs_per_unit", c.mallocs/work)
	if cfg.trace {
		rep.set("trace_overhead_ratio", median(rates[:firstCounted])/median(rates[firstCounted:])-1)
		rep.set("gc.pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		if def.unit == "queries" {
			rep.set("optimizer.allocs_per_query", c.mallocs/work)
		}
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for l, s := range shares {
			if pkg, ok := strings.CutPrefix(l, "other/"); ok {
				otherCPU[pkg] = s
			} else {
				rep.set("cpu_share."+l, s)
			}
		}
	}
	timed, cpus, rates := durs[firstCounted:], cpus[firstCounted:], rates[firstCounted:]
	q1, q3 := quartiles(timed)
	med := median(timed)
	st := sliceStats{
		Count: len(timed), Units: work / float64(len(timed)), UnitLabel: def.unit, RegionS: regionS,
		MedianS: med, MinS: quantile(timed, 0), MaxS: quantile(timed, 1), IQRShare: ratio(q3-q1, med), EachS: timed, EachCPUS: cpus,
	}
	rep.set("work_per_s", median(rates))

	end = c.span("bench.finish")
	err = inst.finish()
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", def.name, err)
	}
	if cfg.trace {
		end := c.span("bench.rungs")
		err := inst.rungs()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: rungs: %w", def.name, err)
		}
		endRoot()
		for l, s := range rec.selfTimes() {
			rep.set("self_s."+l, s)
		}
		if cfg.outDir != "" {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := rec.write(filepath.Join(cfg.outDir, def.name+".spans.json")); err != nil {
				return nil, err
			}
		}
	}
	rep.set("peak_rss_mb", peakRSSMB())
	host.finish()

	specs := specsFor(cfg.trace)
	metrics := emitted(rep.values, specs)
	for _, s := range specs {
		v := metrics[s.Name].Value
		rep.check(finite(v), "metric %s is not finite", s.Name)
		if !cfg.trace {
			rep.check(v != 0, "end-to-end metric %s is zero", s.Name)
		}
	}
	fr := &fullResult{
		Workload: def.name, Seed: cfg.seed, Scale: scale, Traced: cfg.trace,
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Failures: rep.failures,
		DetFingerprint: fmt.Sprintf("%016x", rep.fp.h.Sum64()),
		Metrics:        metrics, Slices: st, OtherCPU: otherCPU,
		WallS: time.Since(processStart).Seconds(), Host: host,
	}
	return fr, nil
}
