package main

// Metric kinds. H is measured on the host (time, memory, allocation
// counts that depend on the scheduler): subject to the sandbox's noise,
// so it is taken as a median and compared with a bound. S is a simulated statistic: the simulator is
// deterministic, so for one seed it repeats exactly. E is an exact
// count or ratio of counts made by the program.
const (
	kindH = "H"
	kindS = "S"
	kindE = "E"
)

// metricSpec describes one metric the benchmark emits. BENCHMARK.json
// carries the subset of these fields its schema allows; the rest (kind,
// layer, what the metric is expected to move) is printed by
// bench/run.sh --describe.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Layer  string  `json:"layer,omitempty"` // per-layer only
	How    string  `json:"how"`
	Moves  string  `json:"moves,omitempty"` // per-layer: end-to-end metric and workload it should move
}

// The layers, in the order the per-layer table prints them. "process"
// holds the traced run's own accounting.
var layers = []string{
	"topology", "vivaldi", "costindex", "dht", "plan", "placement",
	"optimizer", "simtime", "overlay", "stream", "failure", "adapt",
}

// endToEnd lists the metrics every workload reports with --trace 0.
// The acceptance driver requires each of them on each workload and
// never zero, so the set is the one that means the same thing
// everywhere; what only some workloads exercise (query latency
// percentiles, tuple latency, repair lag, loss, the two-step usage
// ratio) is a per-layer metric and an output check instead.
//
// Bounds. The driver accepts a bound only if ten runs with ten seeds
// spread (interquartile range over median) less than it, and asks for a
// third of it. Three metrics hold the issue's 10%: host memory, the
// simulated usage ratio (its spread is across seeds; for one seed it
// repeats exactly) and the allocation count, which is the benchmark's
// time-free cost measure and repeats within a percent where host time
// does not. The two host-time metrics cannot: on this 2-core sandbox a
// single run's work_per_s spreads 4-17% of its median over ten seeds
// and the medians of two such passes an hour apart differ by 7-16%
// (README.md, "Bounds"), most of it a drift of the whole host over
// minutes that shows equally in the fastest slices and in set-up time,
// so no statistic over one run removes it. Their bounds are what the
// driver's rule then requires, and setup_s has the largest, as the
// driver's contract says. Medians of interleaved sets of runs agree
// far better (NOISE.md; --selfcheck counts the pairs within 5%), and
// --compare is the instrument for a claim.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: kindH, Bound: 0.25,
		How: "main to \"the first timed slice may start\": generation, latency tables, coordinates, env/DHT, network, deploys, warm-up"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Bound: 0.25,
		How: "work units per host second, median slice; a unit is one optimized query on opt_* (opt_queries_per_s) and one overlay message sent, tuple or heartbeat, on flow_steady and crash_repair (overlay_msgs_per_s)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Kind: kindH, Bound: 0.10,
		How: "VmHWM of the process at exit"},
	{Name: "allocs_per_unit", Unit: "count", Better: "lower", Kind: kindH, Bound: 0.10,
		How: "heap allocations (MemStats.Mallocs delta) over the timed region per work unit: a cost that does not depend on the host's speed"},
	{Name: "usage_vs_central", Unit: "ratio", Better: "lower", Kind: kindS, Bound: 0.10,
		How: "sum of true-latency network usage of the circuits the workload's optimizer path produced, over the same plans with every movable operator on the consumer's node, a yardstick computed from the topology alone"},
}

func cpuShareSpecs() []metricSpec {
	var out []metricSpec
	for _, l := range append(append([]string{}, layers...), "other", "runtime") {
		out = append(out, metricSpec{Name: "cpu_share." + l, Unit: "ratio", Better: "lower", Kind: kindH, Layer: "process",
			How:   "share of CPU-profile samples in the traced timed region whose innermost repo frame is in internal/" + l,
			Moves: "names which layer the workload loads"})
	}
	return out
}

func selfTimeSpecs() []metricSpec {
	var out []metricSpec
	for _, l := range append(append([]string{}, layers...), "bench") {
		out = append(out, metricSpec{Name: "self_s." + l, Unit: "s", Better: "lower", Kind: kindH, Layer: "process",
			How:   "summed self time (span minus children) of the benchmark's spans around calls into " + l,
			Moves: "sums with the other self_s.* to the traced run's wall time"})
	}
	return out
}

// perLayer lists the metrics every workload reports with --trace 1. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = append(append([]metricSpec{
	{Name: "topology.generate_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "topology", How: "topology.Generate", Moves: "setup_s on all workloads"},
	{Name: "topology.sparse_build_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "topology", How: "EnableSparseLatency, or LatencyMatrix on net2k", Moves: "setup_s on all workloads"},
	{Name: "topology.latency_ns", Unit: "ns", Better: "lower", Kind: kindH, Layer: "topology", How: "Topology.Latency over seeded pairs", Moves: "work_per_s on flow_steady"},

	{Name: "vivaldi.embed_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "vivaldi", How: "batch embedding: NewEnv without DHT (net2k)", Moves: "setup_s on opt_cold_dht"},
	{Name: "vivaldi.ticker_round_ms", Unit: "ms", Better: "lower", Kind: kindH, Layer: "vivaldi", How: "clk.Sleep per gossip round", Moves: "setup_s on net16k workloads; work_per_s on opt_churn"},
	{Name: "vivaldi.median_rel_err", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "vivaldi", How: "Env.EmbeddingQuality", Moves: "optimizer.usage_ratio, usage_vs_central"},

	{Name: "costindex.knn_ns", Unit: "ns", Better: "lower", Kind: kindH, Layer: "costindex", How: "OracleMapper.MapCoord over seeded targets", Moves: "work_per_s on opt_warm_sharded and opt_churn; none on opt_cold_dht"},
	{Name: "costindex.rebuild_ms", Unit: "ms", Better: "lower", Kind: kindH, Layer: "costindex", How: "first MapCoord after a full coordinate sync", Moves: "work_per_s on opt_churn"},

	{Name: "dht.build_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "dht", How: "env with DHT minus env without", Moves: "setup_s on opt_cold_dht, opt_churn, crash_repair"},
	{Name: "dht.map_ns", Unit: "ns", Better: "lower", Kind: kindH, Layer: "dht", How: "DHTMapper.MapCoord over seeded targets", Moves: "work_per_s on opt_cold_dht and opt_churn; none on opt_warm_sharded, flow_steady"},
	{Name: "dht.lookup_hops_mean", Unit: "count", Better: "lower", Kind: kindE, Layer: "dht", How: "MapStats.LookupHops per mapping", Moves: "dht.map_ns"},
	{Name: "dht.peers_walked_mean", Unit: "count", Better: "lower", Kind: kindE, Layer: "dht", How: "MapStats.PeersWalked per mapping", Moves: "dht.map_ns"},
	{Name: "dht.walk_miss_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "dht", How: "seeded targets for which the default 32-peer walk found no entry", Moves: "failed batches where the benchmark cannot widen the walk (opt_churn)"},
	{Name: "dht.publish_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "dht", How: "Catalog.Publish of a node's current point", Moves: "work_per_s on opt_churn; setup_s"},
	{Name: "dht.rpc_retry_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "dht", How: "Ring.FaultStats retries over RPCs", Moves: "work_per_s on crash_repair"},

	{Name: "plan.enumerate_us_3way", Unit: "us", Better: "lower", Kind: kindH, Layer: "plan", How: "Enumerator.Enumerate replay, 3-stream queries", Moves: "work_per_s on opt_cold_dht; none on opt_warm_sharded"},
	{Name: "plan.enumerate_us_4way", Unit: "us", Better: "lower", Kind: kindH, Layer: "plan", How: "Enumerator.Enumerate replay, 4-stream queries", Moves: "work_per_s on opt_cold_dht"},
	{Name: "plan.enumerate_us_5way", Unit: "us", Better: "lower", Kind: kindH, Layer: "plan", How: "Enumerator.Enumerate replay, 5-stream queries", Moves: "work_per_s on opt_cold_dht"},
	{Name: "plan.plans_per_query", Unit: "count", Better: "lower", Kind: kindE, Layer: "plan", How: "Result.PlansConsidered mean over the sample", Moves: "work_per_s on opt_cold_dht"},

	{Name: "placement.skeleton_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "placement", How: "Builder.Skeleton per plan, staged replay", Moves: "work_per_s on opt_cold_dht and opt_warm_sharded"},
	{Name: "placement.virtual_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "placement", How: "Builder.PlaceVirtual per plan, staged replay", Moves: "work_per_s on opt_cold_dht and opt_warm_sharded"},
	{Name: "placement.map_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "placement", How: "Builder.MapPhysical per plan, staged replay", Moves: "work_per_s on opt_cold_dht and opt_warm_sharded"},
	{Name: "placement.map_error_ms_mean", Unit: "ms", Better: "lower", Kind: kindE, Layer: "placement", How: "MapStats.Error per mapped service", Moves: "optimizer.usage_ratio"},

	{Name: "optimizer.usage_ratio", Unit: "ratio", Better: "lower", Kind: kindS, Layer: "optimizer", How: "the circuits' true-latency usage over the same queries under TwoStep on the same environment (paper Fig. 1); 1 by construction on opt_warm_sharded and opt_churn, whose queries have a single plan", Moves: "usage_vs_central on opt_cold_dht, flow_steady, crash_repair"},
	{Name: "optimizer.cache_hit_ratio", Unit: "ratio", Better: "higher", Kind: kindE, Layer: "optimizer", How: "results with FromCache over results", Moves: "work_per_s on opt_warm_sharded (>= 0.9 there, 0 on opt_cold_dht)"},
	{Name: "optimizer.shard_fallback_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "optimizer", How: "ShardStats.Fallback over queries", Moves: "work_per_s on opt_warm_sharded"},
	{Name: "optimizer.batch_cold_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "optimizer", How: "first batch of the set-up", Moves: "setup_s"},
	{Name: "optimizer.freeze_ms", Unit: "ms", Better: "lower", Kind: kindH, Layer: "optimizer", How: "Env.Freeze", Moves: "work_per_s on opt_churn"},
	{Name: "optimizer.mutate_ms_per_round", Unit: "ms", Better: "lower", Kind: kindH, Layer: "optimizer", How: "ApplyChurn plus SetCoordinates per round", Moves: "work_per_s on opt_churn"},
	{Name: "optimizer.deploy_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "optimizer", How: "Deployment.Deploy per circuit", Moves: "setup_s on flow_steady, crash_repair"},
	{Name: "optimizer.query_p50_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "optimizer", How: "sequential Integrated.Optimize, one client", Moves: "work_per_s on opt_cold_dht"},
	{Name: "optimizer.query_p95_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "optimizer", How: "sequential Integrated.Optimize, one client", Moves: "work_per_s on opt_cold_dht"},
	{Name: "optimizer.query_p99_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "optimizer", How: "sequential Integrated.Optimize, one client", Moves: "work_per_s on opt_cold_dht"},
	{Name: "optimizer.allocs_per_query", Unit: "count", Better: "lower", Kind: kindH, Layer: "optimizer", How: "MemStats.Mallocs delta over the timed region per query", Moves: "work_per_s, peak_rss_mb on opt_*"},

	{Name: "simtime.kernel_events_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "simtime", How: "schedule and drain timers at the workload's pending depth on NewVirtual", Moves: "work_per_s on flow_steady and crash_repair"},
	{Name: "simtime.sharded_events_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "simtime", How: "the same on NewVirtualSharded with the workload's lane map", Moves: "work_per_s on crash_repair only"},
	{Name: "simtime.sim_s_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "simtime", How: "simulated seconds over the host seconds spent advancing the clock", Moves: "work_per_s on flow_steady and crash_repair, by the seed's message volume"},
	{Name: "simtime.pending_peak", Unit: "count", Better: "lower", Kind: kindE, Layer: "simtime", How: "PendingEvents sampled at slice ends", Moves: "simtime.kernel_events_per_s"},

	{Name: "overlay.msgs_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "overlay", How: "msgs.sent delta (heartbeats included) over host seconds", Moves: "work_per_s on flow_steady and crash_repair"},
	{Name: "overlay.hb_only_msgs_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "overlay", How: "heartbeats alone on a fresh network with the workload's lanes", Moves: "work_per_s on crash_repair, not flow_steady"},
	{Name: "overlay.allocs_per_msg", Unit: "count", Better: "lower", Kind: kindH, Layer: "overlay", How: "MemStats.Mallocs delta over the timed region per message sent", Moves: "work_per_s, peak_rss_mb on the flows"},
	{Name: "overlay.new_network_s", Unit: "s", Better: "lower", Kind: kindH, Layer: "overlay", How: "overlay.NewNetwork", Moves: "setup_s on the flows"},
	{Name: "overlay.drop_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "overlay", How: "all drop counters, heartbeat drops included, over msgs.sent", Moves: "stream.tuple_loss_ratio"},

	{Name: "stream.tuples_per_s", Unit: "1/s", Better: "higher", Kind: kindH, Layer: "stream", How: "sink tuples over host seconds", Moves: "work_per_s on flow_steady; little on crash_repair"},
	{Name: "stream.engine_deploy_us", Unit: "us", Better: "lower", Kind: kindH, Layer: "stream", How: "Engine.Deploy per circuit", Moves: "setup_s on the flows"},
	{Name: "stream.measured_usage_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "stream", How: "sum of Measurement.NetworkUsage over the circuits' predicted true-latency usage", Moves: "usage_vs_central on the flows"},
	{Name: "stream.out_rate_ratio", Unit: "ratio", Better: "higher", Kind: kindE, Layer: "stream", How: "sum of Measurement.OutRateKBs over the plans' predicted output rate", Moves: "stream.tuples_per_s"},
	{Name: "stream.tuple_latency_sim_ms", Unit: "sim-ms", Better: "lower", Kind: kindS, Layer: "stream", How: "mean over circuits of Measurement.MeanLatencyMs", Moves: "usage_vs_central on flow_steady"},
	{Name: "stream.tuple_loss_ratio", Unit: "ratio", Better: "lower", Kind: kindS, Layer: "stream", How: "faults.dropped+msgs.down_dropped+msgs.dropped+msgs.unrouted+repair.buffered_lost over msgs.sent", Moves: "0 on flow_steady (checked); bounded on crash_repair"},

	{Name: "failure.detect_sim_ms_p50", Unit: "sim-ms", Better: "lower", Kind: kindE, Layer: "failure", How: "crash instant to Died verdict", Moves: "adapt.repair_sim_ms_p50 on crash_repair"},
	{Name: "failure.false_positive_ratio", Unit: "ratio", Better: "lower", Kind: kindE, Layer: "failure", How: "Died verdicts on live nodes over verdicts", Moves: "failed operations on crash_repair"},

	{Name: "adapt.repair_round_ms_p50", Unit: "ms", Better: "lower", Kind: kindH, Layer: "adapt", How: "HandleFailures calls that repaired something", Moves: "work_per_s on crash_repair"},
	{Name: "adapt.sweep_ms_p50", Unit: "ms", Better: "lower", Kind: kindH, Layer: "adapt", How: "SweepIncremental calls", Moves: "work_per_s on crash_repair"},
	{Name: "adapt.control_share", Unit: "ratio", Better: "lower", Kind: kindH, Layer: "adapt", How: "host seconds in the two calls over slice seconds", Moves: "work_per_s on crash_repair"},
	{Name: "adapt.services_evaluated_per_round", Unit: "count", Better: "lower", Kind: kindE, Layer: "adapt", How: "SweepStats.ServicesEvaluated mean", Moves: "adapt.sweep_ms_p50"},
	{Name: "adapt.repaired_services", Unit: "count", Better: "higher", Kind: kindE, Layer: "adapt", How: "RepairStats.Repaired total", Moves: "adapt.repair_round_ms_p50"},
	{Name: "adapt.migrations", Unit: "count", Better: "lower", Kind: kindE, Layer: "adapt", How: "SweepStats.Migrated total", Moves: "adapt.sweep_ms_p50"},
	{Name: "adapt.state_lost_kb", Unit: "KB", Better: "lower", Kind: kindE, Layer: "adapt", How: "RepairStats.StateLostKB total", Moves: "stream.tuple_loss_ratio"},
	{Name: "adapt.repair_sim_ms_p50", Unit: "sim-ms", Better: "lower", Kind: kindS, Layer: "adapt", How: "crash instant to the round in which the stranded service's route flipped, median over repaired services", Moves: "bounded on crash_repair (checked)"},

	{Name: "gc.pause_ms_total", Unit: "ms", Better: "lower", Kind: kindH, Layer: "process", How: "MemStats.PauseTotalNs delta over the timed region", Moves: "work_per_s"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Kind: kindH, Layer: "process", How: "median traced slice over median untraced slice of the same run, minus 1", Moves: "none; bounds what the traced numbers are worth"},
}, cpuShareSpecs()...), selfTimeSpecs()...)

// specsFor returns the metrics a run prints: every end-to-end metric
// untraced, every per-layer metric traced.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// allSpecs is every metric, end-to-end first.
func allSpecs() []metricSpec {
	return append(append([]metricSpec{}, endToEnd...), perLayer...)
}
