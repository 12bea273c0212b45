// Package sbon is a stream-based overlay network (SBON) simulator with a
// cost-space query optimizer, reproducing Shneidman et al., "A Cost-Space
// Approach to Distributed Query Optimization in Stream Based Overlays"
// (ICDE 2005).
//
// A System bundles everything the paper describes: a transit-stub
// wide-area topology, Vivaldi network coordinates, a cost space (latency
// plane + weighted CPU-load dimension), a Hilbert-curve-keyed DHT
// catalog, plan enumeration, spring-relaxation virtual placement with
// DHT physical mapping, the integrated and two-step optimizers,
// radius-pruned multi-query optimization, a re-optimization/migration
// controller, and a stream engine that executes circuits with real
// tuples on a deterministic discrete-event clock, where measurement
// windows complete instantly and same-seed runs reproduce
// bit-identically (internal/simtime).
//
// Multi-query reuse (§3.4) executes for real: a circuit that reuses
// another's service instance deploys without instantiating the shared
// subtree — the engine taps the owning circuit's operator output and
// fans it out to every subscriber, cancelling an owner hands the
// instance to a surviving consumer, and migrating a shared instance
// re-routes all subscribers atomically at cutover (see
// System.SharedExecution and the X14 experiment).
//
// Running circuits adapt while they execute: System.Adapt plans service
// moves over the cost space (a typed MigrationPlan), charges in-flight
// load on both hosts through a two-phase deployment protocol, and
// migrates the live operators with a buffered handoff — upstream tuples
// re-route to the new host and queue there, the old host drains, state
// moves, the buffer replays, stragglers forward — so re-optimization
// costs zero tuple loss (internal/adapt, stream.Engine.Migrate).
// System.Evacuate drains every service off departing nodes before they
// leave the overlay.
//
// Physical mapping — projecting ideal virtual coordinates onto nearest
// physical nodes in full cost-space distance, the per-query hot path —
// is served by an epoch-versioned exact k-NN index over node cost-space
// points (internal/costindex): environment mutations mark it dirty, it
// rebuilds (or patches, for single-point load moves) lazily, and frozen
// snapshots share one immutable index lock-free across OptimizeBatch
// workers. Results are identical to exhaustive scans; see the README's
// Performance section for the measured effect.
//
// Quickstart:
//
//	sys, _ := sbon.New(sbon.Options{Seed: 1})
//	sys.AddStream(0, sys.StubNodes()[0], 100) // 100 KB/s producer
//	sys.AddStream(1, sys.StubNodes()[9], 150)
//	res, _ := sys.Optimize(sbon.Query{ID: 1, Consumer: sys.StubNodes()[20],
//	        Streams: []sbon.StreamID{0, 1}})
//	fmt.Println(res.Circuit, sys.Usage(res.Circuit))
package sbon

import (
	"fmt"
	"io"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/metrics"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
	"github.com/hourglass/sbon/internal/workload"
)

// Re-exported identifier and model types, so applications only import
// this package.
type (
	// NodeID identifies an overlay node.
	NodeID = topology.NodeID
	// StreamID identifies a published source stream.
	StreamID = query.StreamID
	// QueryID identifies a continuous query.
	QueryID = query.QueryID
	// Query is a continuous query over source streams.
	Query = query.Query
	// Circuit is a physically placed query (services bound to nodes).
	Circuit = optimizer.Circuit
	// Result is an optimization outcome.
	Result = optimizer.Result
	// TopologyConfig parameterizes the transit-stub generator.
	TopologyConfig = topology.Config
	// Measurement is a data-plane measurement snapshot.
	Measurement = stream.Measurement
	// BatchOptions configures OptimizeBatch.
	BatchOptions = optimizer.BatchOptions
	// PlanCache memoizes placed circuits across batch optimizations.
	PlanCache = optimizer.PlanCache
	// MigrationPlan is a typed re-optimization sweep output: the service
	// moves a control plane hands to the data plane.
	MigrationPlan = optimizer.MigrationPlan
	// AdaptStats reports one sweep→migrate→settle adaptation round.
	AdaptStats = adapt.SweepStats
	// AdaptRunStats aggregates a continuous adaptation loop
	// (AdaptContinuously).
	AdaptRunStats = adapt.RunStats
	// SharedStats is a snapshot of the engine's shared-execution state:
	// instances executing once for multiple circuits, their
	// subscribers, and zombie providers awaiting their last release.
	SharedStats = stream.SharedStats
	// FaultPlan scripts deterministic fault injection on the overlay:
	// seeded message loss, latency jitter, link/partition cuts, and
	// unannounced node crashes (see InstallFaults).
	FaultPlan = overlay.FaultPlan
	// NodeCrash schedules one unannounced node death (and optional
	// recovery) inside a FaultPlan.
	NodeCrash = overlay.NodeCrash
	// LinkFault is a windowed per-link cut or loss inside a FaultPlan.
	LinkFault = overlay.LinkFault
	// PartitionFault is a windowed group split inside a FaultPlan.
	PartitionFault = overlay.PartitionFault
	// FailureEvent is one failure-detector verdict (suspected, died,
	// recovered).
	FailureEvent = failure.Event
	// RepairStats reports failure-repair rounds: circuits cancelled,
	// services re-placed, and state/tuples counted lost.
	RepairStats = adapt.RepairStats
)

// Options configures a System. The System's calls that advance the
// clock (RunFor, Adapt, AdaptContinuously, Evacuate) run the
// simulation's events on the calling goroutine. Callers on several
// goroutines take turns: one sleeps through the clock while the others
// wait for it.
type Options struct {
	// Seed drives all randomness (topology, coordinates, loads).
	Seed int64
	// Topology overrides the transit-stub configuration; zero value
	// means the paper's ~600-node default.
	Topology TopologyConfig
	// DefaultJoinSelectivity is the catalog default for stream pairs
	// without explicit statistics (default 0.8).
	DefaultJoinSelectivity float64
	// DisableDHT skips the Chord/Hilbert catalog and maps coordinates
	// with a centralized oracle instead (faster, less faithful). With the
	// catalog, Optimize, the batch calls and Rewrite map through the DHT,
	// while re-optimization sweeps (PlanReoptimization, Adapt,
	// AdaptContinuously, Evacuate) map with the oracle either way: see
	// optimizer.Reoptimizer.Mapper for why.
	DisableDHT bool
	// Trace enables the structured event tracer: optimizer decisions,
	// migration phases, repair rounds, DHT lookup hops, fault and
	// failure-detector events, and sampled tuple hops, all stamped by
	// the engine clock, so the serialized trace is bit-identical for a
	// fixed seed. The tracer starts with the engine (StartEngine);
	// access it with Tracer, export with WriteReport or the tracer's own
	// writers.
	Trace bool
	// DataShards executes the data plane on that many parallel
	// per-shard event queues (rounded down to a power of two), with
	// nodes assigned to shards by their Hilbert-prefix cost-space
	// region (optimizer.NodeRegions). Every artifact —
	// measurements, traces, placements — is defined to be bit-identical
	// to the single-queue run; only wall time changes. <= 1 (the
	// default) keeps the single event queue.
	DataShards int
}

// System is a fully assembled SBON.
type System struct {
	Topo       *topology.Topology
	Env        *optimizer.Env
	Stats      *query.Catalog
	Registry   *optimizer.Registry
	Deployment *optimizer.Deployment

	// w is the assembled overlay; its data-plane fields are nil until
	// StartEngine.
	w         *scenario.World
	planCache *optimizer.PlanCache
	// tracer is Options.Trace's tracer once the engine has started.
	tracer *trace.Tracer

	// adaptCo is the persistent adaptation coordinator: incremental
	// sweeps carry a delta-log watermark across Adapt/AdaptContinuously
	// calls, so one instance must serve them all.
	adaptCo *adapt.Coordinator
}

// New builds a System: generates the topology, embeds coordinates,
// assigns background loads, and (unless disabled) constructs the DHT
// catalog with every node's cost-space coordinate published.
func New(opts Options) (*System, error) {
	spec := scenario.Spec{
		Seed:       opts.Seed,
		Topology:   opts.Topology,
		Streams:    workload.StreamConfig{DefaultSel: opts.DefaultJoinSelectivity},
		UseDHT:     !opts.DisableDHT,
		DataShards: opts.DataShards,
	}
	if spec.Topology.TotalNodes() == 0 {
		spec.Topology = topology.DefaultConfig()
	}
	if spec.Streams.DefaultSel <= 0 {
		spec.Streams.DefaultSel = 0.8
	}
	if opts.Trace {
		spec.Tracer = trace.New(nil)
	}
	w, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	return &System{
		Topo:       w.Topo,
		Env:        w.Env,
		Stats:      w.Stats,
		Registry:   w.Deployment.Registry,
		Deployment: w.Deployment,
		w:          w,
		planCache:  optimizer.NewPlanCache(),
	}, nil
}

// StubNodes returns the edge (stub) nodes — where producers and
// consumers typically live.
func (s *System) StubNodes() []NodeID { return s.Topo.StubNodeIDs() }

// TransitNodes returns the core (transit) nodes.
func (s *System) TransitNodes() []NodeID { return s.Topo.TransitNodeIDs() }

// AddStream registers a source stream published by producer at rate
// KB/s. Statistics changes advance the environment epoch so plan caches
// drop plans enumerated under the old catalog.
func (s *System) AddStream(id StreamID, producer NodeID, rateKBs float64) error {
	if err := s.Stats.AddStream(id, producer, rateKBs); err != nil {
		return err
	}
	s.Env.NoteStatsChanged()
	return nil
}

// SetJoinSelectivity sets the pairwise join selectivity between two
// streams. Statistics changes advance the environment epoch so plan
// caches drop plans enumerated under the old catalog.
func (s *System) SetJoinSelectivity(a, b StreamID, sel float64) error {
	if err := s.Stats.SetPairSelectivity(a, b, sel); err != nil {
		return err
	}
	s.Env.NoteStatsChanged()
	return nil
}

// Optimize runs the paper's integrated optimization: every candidate
// plan is virtually placed in the cost space and physically mapped; the
// cheapest resulting circuit is returned (not yet deployed).
func (s *System) Optimize(q Query) (*Result, error) {
	return optimizer.NewIntegrated(s.Env).Optimize(q)
}

// OptimizeBatch optimizes many queries concurrently over one frozen
// snapshot of the environment: a worker pool shares the snapshot — and
// its cost-space k-NN index, built once per snapshot — without locking,
// and a plan cache keyed by (consumer, canonical stream set) answers
// repeated queries with the circuit placed for the key, with no
// enumeration and no placement. Results are in query order.
//
// Unless opts.Cache is set or opts.NoCache is true, the System's
// persistent plan cache is used, so later batches benefit from earlier
// ones. A statistics change (AddStream, SetJoinSelectivity) or a crash
// repair of the DHT catalog flushes it; after a load change (Deploy,
// Cancel, SetBackgroundLoad, Adapt) each entry is revalidated on its
// first hit (see PlanCache), so stale circuits are never served. The
// System must not be mutated while a batch is running.
//
// A result's Circuit may share its plan, services and links with the
// plan cache and other results: they must not be written. Deploy
// copies the services and links it writes; a caller that needs to
// change the plan copies it first (Plan.Clone or ShallowClone).
func (s *System) OptimizeBatch(queries []Query, opts BatchOptions) ([]Result, error) {
	if opts.Cache == nil && !opts.NoCache {
		opts.Cache = s.planCache
	}
	return optimizer.OptimizeBatch(s.Env, queries, opts)
}

// PlanCacheStats returns the cumulative hit/miss counts and current size
// of the System's persistent plan cache.
func (s *System) PlanCacheStats() (hits, misses, entries int) {
	hits, misses = s.planCache.Stats()
	return hits, misses, s.planCache.Len()
}

// OptimizeTwoStep runs the classical baseline: the statistics-optimal
// plan is chosen first and only then placed.
func (s *System) OptimizeTwoStep(q Query) (*Result, error) {
	return optimizer.NewTwoStep(s.Env).Optimize(q)
}

// OptimizeShared runs multi-query optimization: plan subtrees may be
// satisfied by services of already-deployed circuits found within the
// cost-space radius of their ideal placement coordinates.
func (s *System) OptimizeShared(q Query, radius float64) (*Result, error) {
	return optimizer.NewMultiQuery(s.Env, s.Registry, radius).Optimize(q)
}

// Deploy installs an optimized circuit: loads are charged to hosting
// nodes and its services become reusable by later queries. c is first
// re-pointed at copies of its services and links (see
// optimizer.Deployment.Deploy), so a batch result's shared ones stay
// unwritten.
func (s *System) Deploy(c *Circuit) error { return s.Deployment.Deploy(c) }

// Cancel removes a deployed circuit, releasing services whose last
// consumer is gone.
func (s *System) Cancel(id QueryID) error { return s.Deployment.Cancel(id) }

// Usage returns the circuit's network usage Σ rate·latency (KB·ms/s) on
// the true topology.
func (s *System) Usage(c *Circuit) float64 {
	return c.NetworkUsage(optimizer.TrueLatency{Topo: s.Topo})
}

// Latency returns the circuit's worst producer→consumer path latency in
// milliseconds on the true topology.
func (s *System) Latency(c *Circuit) float64 {
	return c.ConsumerLatency(optimizer.TrueLatency{Topo: s.Topo})
}

// TotalUsage returns the summed network usage of all deployed circuits
// (shared links counted once).
func (s *System) TotalUsage() float64 {
	return s.Deployment.TotalUsage(optimizer.TrueLatency{Topo: s.Topo})
}

// SetBackgroundLoad changes a node's background CPU load, moving its
// cost-space coordinate (and DHT entry).
func (s *System) SetBackgroundLoad(n NodeID, load float64) {
	s.Env.SetBackgroundLoad(n, load)
}

// PlanReoptimization runs a full re-optimization sweep and returns the
// typed migration plan without applying anything — the moves Adapt's
// next round would plan, exposed for callers that want to inspect or
// filter them. Like Adapt, it maps with the oracle, not the DHT.
func (s *System) PlanReoptimization() (MigrationPlan, error) {
	return optimizer.NewReoptimizer(s.Deployment).Plan()
}

// AdaptOptions tunes System.Adapt.
type AdaptOptions struct {
	// Sweeps is the number of sweep→migrate→settle rounds (default 1).
	Sweeps int
	// Budget caps migrations per sweep, best predicted gain first
	// (0 = unbounded).
	Budget int
	// Threshold is the re-optimization hysteresis (default 0.05).
	Threshold float64
	// Exclude bars nodes as migration targets.
	Exclude map[NodeID]bool
}

// Adapt runs local re-optimization rounds (§3.3): deployed services
// re-run placement and migrate when the cost improvement clears the
// hysteresis threshold. Each round plans service moves over the cost
// space, walks every selected move through the two-phase deployment
// protocol, and — when the engine is running the affected circuits —
// migrates the operators under traffic (buffered handoff, zero tuple
// loss) before committing. Returns per-round sweep statistics. Without a
// started engine the moves commit instantly (control-plane-only
// adaptation). Sweeps map with the exact oracle over their planning
// shadow, even when the System has a DHT catalog (see
// optimizer.Reoptimizer.Mapper).
func (s *System) Adapt(opts AdaptOptions) ([]AdaptStats, error) {
	sweeps := opts.Sweeps
	if sweeps <= 0 {
		sweeps = 1
	}
	co := s.coordinator(opts)
	out := make([]AdaptStats, 0, sweeps)
	for i := 0; i < sweeps; i++ {
		r, err := co.Round(nil, nil)
		if err != nil {
			return out, err
		}
		out = append(out, r.Sweep)
	}
	return out, nil
}

// AdaptContinuously runs the clock-driven continuous adaptation loop
// (the paper's §3.3 continuous optimization at delta cost): every
// interval, the coordinator consumes the environment's delta log —
// every load change, deploy, cancel, and committed migration since the
// last round — and re-plans only the circuits the delta can affect,
// then migrates and settles as Adapt does. The first round is a full
// sweep; later rounds cost O(delta), so a quiet overlay re-plans
// nothing.
//
// Once StartFailureDetection has run, every round first consumes the
// detector's verdicts: circuits that lost a pinned endpoint cancel,
// every service stranded on a confirmed-dead node is re-placed onto a
// live node by an evacuation sweep, and the lost operators restart
// fresh, with state and in-flight tuples counted lost. No Evacuate calls
// are needed for crashes; the returned Repair field sums the repairs.
//
// The call runs the clock until stop fires. It is deterministic: close
// stop from a clock event (StopAfter) and same-seed runs reproduce
// bit-identical round statistics; a close from another goroutine is seen
// only between events. The coordinator's incremental watermark persists
// across Adapt and AdaptContinuously calls on the same System.
func (s *System) AdaptContinuously(interval time.Duration, stop <-chan struct{}, opts AdaptOptions) (AdaptRunStats, error) {
	return s.coordinator(opts).Run(s.w.Detector, interval, stop)
}

// Evacuate force-migrates every service off the given nodes (graceful
// drain before decommissioning them), with live handoff for executing
// circuits. The drained nodes are also excluded as targets of the
// evacuation itself.
func (s *System) Evacuate(nodes []NodeID) (AdaptStats, error) {
	opts := AdaptOptions{Exclude: make(map[NodeID]bool, len(nodes))}
	for _, n := range nodes {
		opts.Exclude[n] = true
	}
	return s.coordinator(opts).Evacuate(nodes, nil)
}

// InstallFaults arms deterministic fault injection on the started
// overlay runtime: seeded per-message loss, latency jitter, link and
// partition cuts, and scheduled unannounced node crashes. Crash times
// are relative to the call. Same plan, same seed → bit-identical fault
// sequences. Returns the injector for live control
// (CrashNode, Partition, CrashTime) — it stops with the System.
func (s *System) InstallFaults(plan FaultPlan) (*overlay.FaultInjector, error) {
	if s.w.Net == nil {
		return nil, fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	return s.w.InjectFaults(plan), nil
}

// StartFailureDetection begins heartbeat emission (each node beats to
// its ring successor among live nodes) and starts the failure detector
// that consumes them: a node missing 2 beats is suspected, 4 confirmed
// dead, and a dead node beating again is recovered. beat is the
// heartbeat period (default 200 simulated ms); detection latency is
// bounded by 5 beats plus one check period. The detector feeds
// AdaptContinuously; both stop with the System.
func (s *System) StartFailureDetection(beat time.Duration) (*failure.Detector, error) {
	if s.w.Net == nil {
		return nil, fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	if s.w.Detector != nil {
		return nil, fmt.Errorf("sbon: failure detection already started")
	}
	if beat <= 0 {
		beat = 200 * time.Millisecond
	}
	return s.w.StartFailureDetection(beat), nil
}

// StopAfter returns a channel closed after simSeconds of simulated time
// — a deterministic stop trigger for AdaptContinuously: the close is an
// event of the clock, so the loop sleeping on it stops at that instant.
func (s *System) StopAfter(simSeconds float64) (<-chan struct{}, error) {
	if s.w.Net == nil {
		return nil, fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	stop := make(chan struct{})
	s.w.Clock.AfterFunc(time.Duration(simSeconds*1000*float64(time.Millisecond)), func() { close(stop) })
	return stop, nil
}

// coordinator returns the System's persistent adaptation coordinator,
// refreshed with the current options, engine, and clock. One instance
// serves every call so incremental sweep bookkeeping survives between
// rounds. Migration tickets expire 5 s after they begin, so a handoff a
// crash interrupts fails over instead of committing blind.
func (s *System) coordinator(opts AdaptOptions) *adapt.Coordinator {
	if s.adaptCo == nil {
		s.adaptCo = &adapt.Coordinator{Dep: s.Deployment}
	}
	co := s.adaptCo
	co.Engine = s.w.Engine
	co.Threshold = opts.Threshold
	co.Budget = opts.Budget
	co.Exclude = opts.Exclude
	co.Tracer = s.tracer
	co.Clock = s.w.Clock
	co.TicketTTL = 5 * time.Second
	return co
}

// Rewrite performs one plan-rewriting sweep (§3.3 "limited plan
// re-writing"): deployed circuits explore one-step join reorderings and
// swap to a cheaper shape when the improvement clears the threshold.
func (s *System) Rewrite() (optimizer.RewriteStats, error) {
	return optimizer.NewReoptimizer(s.Deployment).RewriteStep()
}

// StartEngine launches the overlay runtime and the stream engine so
// circuits can be executed with real tuples.
func (s *System) StartEngine() error {
	if s.w.Net != nil {
		return fmt.Errorf("sbon: engine already started")
	}
	if err := s.w.StartDataPlane(); err != nil {
		return err
	}
	if s.tracer = s.w.Spec.Tracer; s.tracer != nil {
		if cat := s.Env.Catalog(); cat != nil {
			cat.Ring().SetTracer(s.tracer)
		}
	}
	return nil
}

// Tracer returns the structured event tracer, or nil when Options.Trace
// is unset or the engine has not started. The nil return is safe to use
// directly: every tracer method no-ops on a nil receiver.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// Metrics returns the overlay runtime's metric registry (counters,
// histograms, labeled families), or nil before StartEngine.
func (s *System) Metrics() *metrics.Registry {
	if s.w.Net == nil {
		return nil
	}
	return s.w.Net.Metrics
}

// WriteReport writes one JSON document merging the runtime's metric
// registry with the run's trace (when tracing is enabled) — the
// run-scoped export behind sbon-sim's -metrics-dump flag. The engine
// must be started.
func (s *System) WriteReport(w io.Writer, label string) error {
	if s.w.Net == nil {
		return fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	rep := metrics.Report{Label: label, Registry: s.w.Net.Metrics}
	if s.tracer != nil {
		rep.Trace = s.tracer.WriteEventsJSON
	}
	return rep.WriteJSON(w)
}

// Run executes a circuit on the engine (StartEngine must have been
// called) and returns a handle for measurement. Circuits with reused
// services execute without duplicating the shared operators: the engine
// taps the owning circuit's operator output, so run providers before
// their consumers (OptimizeShared results reuse instances of circuits
// deployed earlier).
func (s *System) Run(c *Circuit) (*stream.Running, error) {
	if s.w.Engine == nil {
		return nil, fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	return s.w.Engine.Deploy(c)
}

// SharedExecution reports how many shared service instances the engine
// is executing once for multiple circuits, how many circuits subscribe
// to them, and how many cancelled providers linger for their
// subscribers. Zero value when the engine is not started.
func (s *System) SharedExecution() SharedStats {
	if s.w.Engine == nil {
		return SharedStats{}
	}
	return s.w.Engine.SharedStats()
}

// StopRun halts an executing circuit.
func (s *System) StopRun(id QueryID) error {
	if s.w.Engine == nil {
		return fmt.Errorf("sbon: engine not started")
	}
	return s.w.Engine.Stop(id)
}

// RunFor advances the data plane by simSeconds simulated seconds — an
// instant, deterministic jump of the event scheduler.
func (s *System) RunFor(simSeconds float64) error {
	if s.w.Net == nil {
		return fmt.Errorf("sbon: engine not started; call StartEngine first")
	}
	s.w.SimSleep(simSeconds)
	return nil
}

// Close shuts down the engine and overlay runtime if they were started,
// and the clock. It is terminal: a closed System does not restart —
// StartEngine, RunFor and StopAfter return errors from then on — while
// what needs no clock (Optimize, Deploy, Usage) keeps working.
func (s *System) Close() { s.w.Close() }
