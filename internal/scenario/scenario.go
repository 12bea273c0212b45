// Package scenario is the one place an overlay is assembled. The
// paper's stack is a fixed pipeline — latencies, cost space, integrated
// optimizer, circuits on the SBON runtime — and every experiment, the
// simulator command and the public facade run some prefix of it. A Spec
// says which prefix and at what size; Build and the stage methods on
// World wire the layers in the only orders that work and derive every
// random stream from the one seed, so callers hold a World and none of
// the wiring.
//
// Stages, each optional after the first:
//
//	w, err := scenario.Build(spec) // control plane: clock → topology → latency backend → catalog → queries → coordinates → environment
//	err = w.StartDataPlane()       // lane map → sharded clock → network → engine
//	w.StartHeartbeats(every)       // liveness traffic only, or:
//	w.InjectFaults(plan)           // failure machinery: fault injector,
//	w.StartFailureDetection(beat)  // heartbeats and the detector on them
//	w.Close()                      // detector, heartbeats, injector, engine, network, ticker, clock
//
// Seed streams: Seed generates the topology, seeds the environment
// (embedding, background loads), the engine's producers and the fault
// plan; Seed*3 draws the catalog and then the queries; Seed*5 the
// gossip ticker's peer samples; Seed*11 load drift (Drift); Seed*13
// crash victims (CrashVictims).
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hourglass/sbon/internal/adapt"
	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
	"github.com/hourglass/sbon/internal/vivaldi"
	"github.com/hourglass/sbon/internal/workload"
)

// heartbeatKB is the size every caller gives a heartbeat.
const heartbeatKB = 0.05

// Ticker asks for coordinates maintained by background Vivaldi gossip
// on the clock in place of one batch embedding of the latency
// matrix.
type Ticker struct {
	// Samples is the peers each node measures per round, Interval the
	// round period, WarmRounds the rounds run before the environment is
	// built from the coordinates.
	Samples    int
	Interval   time.Duration
	WarmRounds int
}

// Spec describes an overlay. The zero value of a field is its plainest
// setting: batch embedding, oracle mapping, one event queue, no
// tracing.
type Spec struct {
	Seed     int64
	Topology topology.Config
	// Streams sizes the generated catalog. With NumStreams zero the
	// catalog starts empty, at Streams.DefaultSel, for callers that
	// publish their own streams.
	Streams workload.StreamConfig
	// Queries sizes the generated population; none with NumQueries zero.
	Queries workload.QueryConfig
	// UseDHT maps virtual coordinates through the Hilbert-keyed DHT
	// catalog instead of the exact oracle.
	UseDHT bool
	// Ticker, when set, feeds coordinates from gossip on the clock.
	Ticker *Ticker

	// DataShards > 1 executes the data plane on that many parallel event
	// queues (rounded down to a power of two), keyed to the optimizer's
	// Hilbert-prefix regions.
	DataShards int
	// Engine carries the producers' keyspace and tuple size (zero: the
	// engine's defaults). Seed zero means Spec.Seed; the tracer is
	// Spec.Tracer.
	Engine stream.EngineConfig
	// Tracer, when set, is re-based onto the World's clock and attached
	// to the network, the engine and the failure detector.
	Tracer *trace.Tracer
}

// World is an assembled overlay: what Build made, plus what the later
// stages added. Fields of stages not run are nil.
type World struct {
	Spec Spec

	Topo       *topology.Topology
	Stats      *query.Catalog
	Queries    []query.Query
	Env        *optimizer.Env
	Deployment *optimizer.Deployment
	Ticker     *vivaldi.Ticker
	// Clock is what the runtime reads time from and every wait sleeps on:
	// a sleep runs the events due on the sleeping goroutine, and
	// goroutines that sleep at once take turns.
	Clock *simtime.VirtualClock

	Net    *overlay.Network
	Engine *stream.Engine
	// Lookahead is the sharded clock's conservative window (zero on a
	// single queue).
	Lookahead time.Duration
	// Runs are the executing circuits, in Deploy/Execute order.
	Runs []*stream.Running

	Heartbeats *overlay.Heartbeats
	Faults     *overlay.FaultInjector
	Detector   *failure.Detector

	driftRng *rand.Rand
	closed   bool
}

// Build runs the control-plane stage. On error nothing is left running.
func Build(spec Spec) (*World, error) {
	// The clock first, so that Close has the same to undo wherever
	// build fails.
	w := &World{Spec: spec, Clock: simtime.NewVirtual()}
	if err := w.build(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (w *World) build() (err error) {
	spec := w.Spec
	if w.Topo, err = topology.Generate(spec.Topology, rand.New(rand.NewSource(spec.Seed))); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.Seed * 3))
	if spec.Streams.NumStreams > 0 {
		w.Stats, err = workload.GenerateStats(w.Topo, spec.Streams, rng)
	} else {
		w.Stats, err = query.NewCatalog(spec.Streams.DefaultSel)
	}
	if err != nil {
		return err
	}
	if spec.Queries.NumQueries > 0 {
		if w.Queries, err = workload.GenerateQueries(w.Topo, w.Stats, spec.Queries, rng, 1); err != nil {
			return err
		}
	}

	envCfg := optimizer.DefaultEnvConfig(spec.Seed)
	envCfg.UseDHT = spec.UseDHT
	if spec.Ticker == nil {
		w.Env, err = optimizer.NewEnv(w.Topo, w.Stats, envCfg)
	} else {
		w.Ticker, err = vivaldi.NewTicker(w.Topo.NumNodes(), w.Topo.PairLatency, vivaldi.DefaultConfig(),
			spec.Ticker.Samples, spec.Ticker.Interval, w.Clock, rand.New(rand.NewSource(spec.Seed*5)))
		if err != nil {
			return err
		}
		w.Ticker.Start()
		w.Clock.Sleep(time.Duration(spec.Ticker.WarmRounds) * spec.Ticker.Interval)
		w.Env, err = optimizer.NewEnvFromCoords(w.Topo, w.Stats, envCfg, w.Ticker.Embedding().Coords)
	}
	if err != nil {
		return err
	}
	w.Deployment = optimizer.NewDeployment(w.Env, nil)
	// After the warm-up, so a trace's time origin is the start of the
	// run and not of the gossip that preceded it.
	spec.Tracer.Rebase(w.Clock)
	return nil
}

// StartDataPlane runs the data-plane stage: the overlay network and the
// stream engine on the World's clock. With DataShards the clock is
// split into lanes first — the lane map needs the environment, and the
// network reads it at construction.
func (w *World) StartDataPlane() error {
	if w.Net != nil || w.closed {
		return fmt.Errorf("scenario: data plane already started or closed")
	}
	cfg := overlay.Config{Clock: w.Clock}
	if w.Spec.DataShards > 1 {
		// The optimizer's Hilbert-prefix regions as lanes, so the traffic
		// of a region-local placement stays lane-local; the smallest
		// edge latency as the lookahead no message can undercut.
		k := optimizer.RoundShards(w.Spec.DataShards)
		laneOf, err := optimizer.NodeRegions(w.Env, k)
		if err != nil {
			return err
		}
		w.Lookahead = time.Duration(w.Topo.MinEdgeLatency() * float64(time.Millisecond))
		if w.Lookahead <= 0 {
			return fmt.Errorf("scenario: topology has no positive edge latency — no conservative lookahead exists")
		}
		w.Clock.ShardLanes(laneOf, k, w.Lookahead)
		cfg.DataShards, cfg.ShardOf = k, laneOf
	}
	w.Net = overlay.NewNetwork(w.Topo, cfg)
	w.Net.SetTracer(w.Spec.Tracer)
	ecfg := w.Spec.Engine
	if ecfg.Seed == 0 {
		ecfg.Seed = w.Spec.Seed
	}
	ecfg.Tracer = w.Spec.Tracer
	w.Engine = stream.NewEngine(w.Net, w.Topo, ecfg)
	return nil
}

// Execute starts the circuits on the engine, in order, and appends
// them to Runs. Providers of shared services go before their consumers.
func (w *World) Execute(circuits ...*optimizer.Circuit) error {
	for _, c := range circuits {
		run, err := w.Engine.Deploy(c)
		if err != nil {
			return err
		}
		w.Runs = append(w.Runs, run)
	}
	return nil
}

// Deploy installs each circuit on the control plane (loads charged,
// services registered) and executes it.
func (w *World) Deploy(circuits ...*optimizer.Circuit) error {
	for _, c := range circuits {
		if err := w.Deployment.Deploy(c); err != nil {
			return err
		}
		if err := w.Execute(c); err != nil {
			return err
		}
	}
	return nil
}

// SimSleep advances the run by simSeconds of simulated time.
func (w *World) SimSleep(simSeconds float64) {
	w.Clock.Sleep(time.Duration(simSeconds * 1000 * float64(time.Millisecond)))
}

// Quiesce halts every producer, lets one simulated second of in-flight
// tuples drain, and returns the tuples produced and delivered over the
// whole run — the two sides of the loss accounting.
func (w *World) Quiesce() (produced, delivered int) {
	for _, run := range w.Runs {
		run.HaltProducers()
	}
	w.SimSleep(1)
	for _, run := range w.Runs {
		produced += run.TuplesProduced()
		delivered += run.Measure().TuplesOut
	}
	return produced, delivered
}

// Drift re-draws the background load of a share of the nodes from the
// World's drift stream.
func (w *World) Drift(churn workload.Churn) {
	if w.driftRng == nil {
		w.driftRng = rand.New(rand.NewSource(w.Spec.Seed * 11))
	}
	workload.ApplyChurn(w.Topo, w.Env, churn, w.driftRng)
}

// StartHeartbeats starts full-population liveness traffic with the
// given period (clock time) and nothing listening to it.
func (w *World) StartHeartbeats(every time.Duration) {
	w.Heartbeats = w.Net.StartHeartbeats(every, heartbeatKB)
}

// CrashVictims draws count nodes to crash from those that pin no
// producer or consumer of a running circuit — a dead endpoint cancels
// its circuit by definition, and the scenarios measure repair. With
// operatorHosts half of them (at least one) are drawn from the nodes
// hosting an operator, so that repair has work whatever the seed;
// without, every non-endpoint node is equally likely.
func (w *World) CrashVictims(count int, operatorHosts bool) []topology.NodeID {
	endpoint := map[topology.NodeID]bool{}
	opHost := map[topology.NodeID]bool{}
	for _, run := range w.Runs {
		for _, s := range run.Circuit.Services {
			if s.Pinned {
				endpoint[s.Node] = true
			} else {
				opHost[s.Node] = operatorHosts
			}
		}
	}
	var opHosts, ambient []topology.NodeID
	for i := 0; i < w.Topo.NumNodes(); i++ {
		switch n := topology.NodeID(i); {
		case endpoint[n]:
		case opHost[n]:
			opHosts = append(opHosts, n)
		default:
			ambient = append(ambient, n)
		}
	}
	rng := rand.New(rand.NewSource(w.Spec.Seed * 13))
	rng.Shuffle(len(opHosts), func(i, j int) { opHosts[i], opHosts[j] = opHosts[j], opHosts[i] })
	rng.Shuffle(len(ambient), func(i, j int) { ambient[i], ambient[j] = ambient[j], ambient[i] })
	fromOps := min(max(count/2, 1), len(opHosts))
	victims := append([]topology.NodeID{}, opHosts[:fromOps]...)
	for _, n := range ambient {
		if len(victims) >= count {
			break
		}
		victims = append(victims, n)
	}
	return victims
}

// StaggerCrashes schedules the victims' deaths evenly from start to
// start+spread after the fault plan is installed.
func StaggerCrashes(victims []topology.NodeID, start, spread time.Duration) []overlay.NodeCrash {
	crashes := make([]overlay.NodeCrash, len(victims))
	for i, n := range victims {
		at := start
		if len(victims) > 1 {
			at += time.Duration(int64(spread) * int64(i) / int64(len(victims)-1))
		}
		crashes[i] = overlay.NodeCrash{Node: n, At: at}
	}
	return crashes
}

// InjectFaults arms the plan on the running network; crash times count
// from this call.
func (w *World) InjectFaults(plan overlay.FaultPlan) *overlay.FaultInjector {
	w.Faults = w.Net.InstallFaults(plan)
	return w.Faults
}

// StartFailureDetection starts heartbeats that skip targets known to be
// down and the failure detector consuming them, at its standard tuning
// for the beat period.
func (w *World) StartFailureDetection(beat time.Duration) *failure.Detector {
	w.Heartbeats = w.Net.StartHeartbeatsOpts(beat, heartbeatKB, overlay.HeartbeatOpts{SkipDownTargets: true})
	cfg := failure.DefaultConfig(beat)
	cfg.Tracer = w.Spec.Tracer
	w.Detector = failure.New(w.Net, cfg)
	return w.Detector
}

// Coordinator returns an adaptation coordinator over the World's
// deployment, engine (nil before StartDataPlane), clock and tracer.
func (w *World) Coordinator() *adapt.Coordinator {
	return &adapt.Coordinator{Dep: w.Deployment, Engine: w.Engine, Clock: w.Clock, Tracer: w.Spec.Tracer}
}

// Close tears the World down, consumers before what they consume: the
// detector before the heartbeats it observes, both and the injector
// before the engine and network whose timers they hold, the ticker
// before its clock, the clock last. Safe on a partly built World and
// safe to repeat.
func (w *World) Close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.Detector != nil {
		w.Detector.Stop()
	}
	if w.Heartbeats != nil {
		w.Heartbeats.Stop()
	}
	if w.Faults != nil {
		w.Faults.Stop()
	}
	if w.Net != nil {
		w.Engine.Close()
		w.Net.Stop()
		w.Engine, w.Net = nil, nil
	}
	if w.Ticker != nil {
		w.Ticker.Stop()
	}
	w.Clock.Stop()
}
