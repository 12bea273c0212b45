package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hourglass/sbon/internal/metrics"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// EngineConfig tunes circuit execution.
type EngineConfig struct {
	// Keyspace is the producer key domain [0, Keyspace) (default 1000).
	// Join windows are sized as selectivity·Keyspace to make measured
	// join rates track the catalog model, and each join keeps a key
	// table of Keyspace entries.
	Keyspace int64
	// TupleSizeKB is the producer tuple size (default 1.0).
	TupleSizeKB float64
	// Seed drives producer key/value generation.
	Seed int64
	// Tracer, when non-nil, records migration phase spans and — behind
	// the tracer's sampling gate — per-tuple hop events on the emission
	// path. A nil tracer costs one pointer check per emitted edge.
	Tracer *trace.Tracer
}

// DefaultEngineConfig returns engine defaults.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Keyspace: 1000, TupleSizeKB: 1.0, Seed: 1}
}

// Engine deploys circuits onto the overlay runtime and measures the
// resulting dataflow. It inherits the network's clock: producers are
// events on it, and a fixed seed reproduces the measured dataflow bit
// for bit.
//
// Shared service instances (§3.4 multi-query optimization) are
// first-class: a circuit whose plan reuses an instance from another
// circuit deploys without duplicating the shared operator — the engine
// taps the providing circuit's operator output and routes it into the
// consumer's downstream services over the overlay, so the shared
// subtree's tuples are produced exactly once and delivered to every
// subscriber.
type Engine struct {
	net   *overlay.Network
	topo  *topology.Topology
	cfg   EngineConfig
	clock *simtime.VirtualClock

	mu      sync.Mutex
	running map[query.QueryID]*Running
	// shared maps a reusable instance to the circuit service executing
	// it; zombies are cancelled provider circuits kept (trimmed) alive
	// because other circuits still subscribe to their services.
	shared  map[*optimizer.ServiceInstance]*sharedExec
	zombies map[*Running]struct{}
}

// NewEngine builds an engine over an overlay network.
func NewEngine(net *overlay.Network, topo *topology.Topology, cfg EngineConfig) *Engine {
	if cfg.Keyspace <= 0 {
		cfg.Keyspace = 1000
	}
	if cfg.TupleSizeKB <= 0 {
		cfg.TupleSizeKB = 1.0
	}
	return &Engine{
		net:     net,
		topo:    topo,
		cfg:     cfg,
		clock:   net.Clock(),
		running: make(map[query.QueryID]*Running),
		shared:  make(map[*optimizer.ServiceInstance]*sharedExec),
		zombies: make(map[*Running]struct{}),
	}
}

// Running is one deployed, executing circuit.
type Running struct {
	Circuit *optimizer.Circuit

	engine  *Engine
	stop    chan struct{}
	prods   []*producer // one per source, halted independently
	started time.Time

	// route[i] is the node tuples destined for service i are sent to;
	// host[i] is the node service i currently executes on. They diverge
	// only during a migration handoff: route flips to the target first
	// (arrivals buffer there) while host follows at cutover. Emitters
	// load both atomically per tuple, which is what lets the adaptation
	// layer re-route circuit links under live traffic. For a reused
	// service both mirror the providing circuit's placement and flip at
	// the provider's cutover.
	route []atomic.Int32
	host  []atomic.Int32
	// svcs carries each service's runtime state: the registered port,
	// the operator instance that migrates with it, and the cross-circuit
	// subscription edges of circuits reusing the service.
	svcs []svcRuntime

	// taps are the shared services this circuit consumes (under
	// engine.mu).
	taps []*tap
	// zombie marks a cancelled circuit kept alive because other
	// circuits still subscribe to its services; kept[i] reports whether
	// service i survived the zombie trim (under engine.mu).
	zombie bool
	kept   []bool

	migs []*Migration // under engine.mu

	// lanes holds the counters the circuit's services add to from the
	// lanes of their nodes (Network.ShardOf of the emitting node):
	// tuples entering at producers, tuple deliveries in from shared
	// providers (charged by the provider's emitting node), and the usage
	// integral Σ sizeKB × latencyMs. Each lane writes only its own row.
	lanes metrics.Lanes
	// The sink's counters: the consumer is pinned, so one node's events
	// write them.
	tuplesOut int
	kbOut     float64
	latencyMs *metrics.Histogram
}

// The per-lane counters of a Running, by slot.
const (
	laneTuplesIn = iota
	laneSharedIn
	laneUsageKBms
	numLaneCounters
)

// svcRuntime is the per-service executable state the migration protocol
// hands between nodes.
type svcRuntime struct {
	port     string
	operator Operator
	// handler is the registered dispatch closure: it feeds the
	// operator and emits downstream. It runs in the host's lane, or in
	// the cutover replay, a control event, while no lane runs.
	handler overlay.Handler
	// migrating marks an in-flight handoff (under engine.mu).
	migrating bool

	// outs are the service's own-circuit delivery edges; subs are the
	// cross-circuit edges of subscribers reusing this service. Both are
	// copy-on-write slices (written under engine.mu, loaded atomically
	// per emission) so deploys, cancels, and the zombie trim re-route
	// the dataflow under live traffic.
	outs atomic.Pointer[[]outEdge]
	subs atomic.Pointer[[]subEdge]
	// taps lists the subscriptions feeding subs, in deploy order
	// (under engine.mu).
	taps []*tap
}

// outEdge is a precomputed delivery target for a service's emissions;
// the destination node is resolved through Running.route at emit time.
type outEdge struct {
	svc  int // destination service index
	port string
	side int
}

// subEdge is a cross-circuit delivery target: a downstream service of a
// circuit that reuses this instance. The destination node is resolved
// through the subscriber's own route table at emit time, and the link
// is charged to the subscriber (the control plane's accounting: a
// consumer pays for the stream from the shared instance to its own
// services).
type subEdge struct {
	run  *Running // subscribing circuit
	svc  int      // destination service index in the subscriber
	port string
	side int
}

// sharedExec locates the circuit service executing a shareable
// instance.
type sharedExec struct {
	run *Running
	svc int
}

// tap is one circuit's subscription to a shared service: the consumer's
// reused-service index plus the delivery edges it contributed to the
// provider's subscriber list.
type tap struct {
	consumer *Running
	svc      int // reused service index in the consumer circuit
	se       *sharedExec
	edges    []subEdge
}

// sendTuple puts t on the wire from node to `to`, feeding input side of
// the service behind port: the tuple travels by value as the message's
// Datum, its size as the message's SizeKB. Send never blocks;
// post-shutdown sends are dropped.
func sendTuple(node *overlay.Node, to topology.NodeID, port string, side int, t Tuple) {
	_ = node.SendData(to, port, t.SizeKB, overlay.Datum{
		Side: int32(side), Stream: int32(t.Stream), Key: t.Key, Value: t.Value, Created: t.Created,
	})
}

// tupleOf reads a data message back into the input side and the tuple
// sendTuple was given.
func tupleOf(m *overlay.Message) (side int, t Tuple) {
	d := &m.Data
	return int(d.Side), Tuple{
		Stream: query.StreamID(d.Stream), Key: d.Key, Value: d.Value, SizeKB: m.SizeKB, Created: d.Created,
	}
}

// ErrProviderNotRunning marks consumer circuits that cannot execute
// because the circuit owning one of their reused instances is not
// deployed on the engine; deploy providers before their consumers.
var ErrProviderNotRunning = errors.New("shared instance provider not running")

// ErrNotRunning marks operations against a query the engine is not
// executing; the adaptation layer matches it to fall back to
// control-plane-only migration for undeployed circuits.
var ErrNotRunning = errors.New("query not running")

// Deploy instantiates the circuit's operators on their hosts, starts
// producers, and begins measurement. Reused services are not
// instantiated: the engine subscribes the circuit's downstream services
// to the providing circuit's operator output instead, so a shared
// instance executes exactly once no matter how many circuits consume
// it. The providers must already be running (ErrProviderNotRunning).
func (e *Engine) Deploy(c *optimizer.Circuit) (*Running, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.running[c.Query.ID]; ok {
		return nil, fmt.Errorf("stream: query %d already running", c.Query.ID)
	}

	// Resolve every reused service's executing provider up front, so a
	// failed resolution aborts before anything is registered.
	type pendingTap struct {
		svc int
		se  *sharedExec
	}
	var pending []pendingTap
	for i, s := range c.Services {
		if !s.Reused {
			continue
		}
		if s.ReusedFrom == nil {
			return nil, fmt.Errorf("stream: circuit q%d service %d is reused but carries no instance", c.Query.ID, i)
		}
		se, err := e.resolveProviderLocked(s.ReusedFrom)
		if err != nil {
			return nil, fmt.Errorf("stream: circuit q%d: %w", c.Query.ID, err)
		}
		pending = append(pending, pendingTap{svc: i, se: se})
	}

	r := &Running{
		Circuit:   c,
		engine:    e,
		stop:      make(chan struct{}),
		route:     make([]atomic.Int32, len(c.Services)),
		host:      make([]atomic.Int32, len(c.Services)),
		svcs:      make([]svcRuntime, len(c.Services)),
		lanes:     metrics.NewLanes(e.net.DataShards(), numLaneCounters),
		latencyMs: &metrics.Histogram{},
	}
	for i, s := range c.Services {
		r.route[i].Store(int32(s.Node))
		r.host[i].Store(int32(s.Node))
	}

	ports := make([]string, len(c.Services)) // one per port: dispatch compares pointers
	port := func(i int) string {
		if ports[i] == "" {
			ports[i] = fmt.Sprintf("q%d.s%d", c.Query.ID, i)
		}
		return ports[i]
	}

	// Outgoing edges per service, with input side derived from link order
	// at the receiver (left child link is appended first by the builder).
	outs := make([][]outEdge, len(c.Services))
	inputsSeen := make(map[int]int, len(c.Services))
	for _, l := range c.Links {
		side := inputsSeen[l.To]
		inputsSeen[l.To]++
		outs[l.From] = append(outs[l.From], outEdge{
			svc:  l.To,
			port: port(l.To),
			side: side,
		})
	}
	for i := range c.Services {
		// A reused service never emits here (its provider does, through
		// the subscription edges built from outs below), so storing its
		// own-circuit edges would only create dead state.
		if len(outs[i]) > 0 && !c.Services[i].Reused {
			edges := outs[i]
			r.svcs[i].outs.Store(&edges)
		}
	}

	// Install operator handlers and the consumer sink.
	for i, s := range c.Services {
		switch {
		case s.Reused:
			// Executes inside its provider; wired below via a tap.
		case s.Plan == nil: // consumer sink
			nd := e.net.Node(s.Node)
			p := port(i)
			r.svcs[i].port = p
			nd.Register(p, func(m overlay.Message) {
				r.tuplesOut++
				r.kbOut += m.SizeKB
				// NowAt, not clock.Since: under sharded execution the
				// handler runs at the delivery instant of the consumer's
				// shard, where the global clock is only barrier-fresh.
				r.latencyMs.Observe(e.net.SimMillis(e.net.NowAt(m.To).Sub(m.Data.Created)))
			})
		case s.Plan.Kind == query.KindSource:
			// Producers are started below.
		default:
			op, err := OperatorFor(s.Plan, e.cfg.Keyspace)
			if err != nil {
				e.teardownLocked(r)
				return nil, err
			}
			rt := &r.svcs[i]
			rt.port = port(i)
			r.install(i, op)
			e.net.Node(s.Node).Register(rt.port, rt.handler)
		}
	}

	// Wire the subscriptions: every reused service becomes a set of
	// cross-circuit edges on its provider, and the consumer's view of
	// the service mirrors the provider's current placement.
	for _, pt := range pending {
		t := &tap{consumer: r, svc: pt.svc, se: pt.se}
		for _, eg := range outs[pt.svc] {
			t.edges = append(t.edges, subEdge{run: r, svc: eg.svc, port: eg.port, side: eg.side})
		}
		prov := pt.se.run
		prov.svcs[pt.se.svc].taps = append(prov.svcs[pt.se.svc].taps, t)
		e.rebuildSubsLocked(prov, pt.se.svc)
		r.taps = append(r.taps, t)
		h := prov.host[pt.se.svc].Load()
		r.route[pt.svc].Store(h)
		r.host[pt.svc].Store(h)
	}

	// Start producers: one recurring clock event each.
	r.started = e.clock.Now()
	for i, s := range c.Services {
		if s.Reused || s.Plan == nil || s.Plan.Kind != query.KindSource {
			continue
		}
		rate := s.Plan.OutRate // KB/s simulated
		emit, lane := r.emitFor(i), e.net.ShardOf(s.Node)
		counted := func(t Tuple) {
			r.lanes.Add(lane, laneTuplesIn, 1)
			emit(t)
		}
		stream := s.Plan.Stream
		seed := e.cfg.Seed + int64(stream)*7919 + int64(c.Query.ID)*104729
		r.prods = append(r.prods, e.startProducer(i, s.Node, stream, rate, seed, counted))
	}

	e.running[c.Query.ID] = r
	return r, nil
}

// resolveProviderLocked locates the circuit service executing a
// shareable instance: the owning circuit's non-reused service with the
// instance's signature, or — when ownership was handed to a consumer
// after the original owner cancelled — the service that consumer's own
// tap points at.
func (e *Engine) resolveProviderLocked(inst *optimizer.ServiceInstance) (*sharedExec, error) {
	if se, ok := e.shared[inst]; ok {
		if se.run.zombie && !se.run.kept[se.svc] {
			return nil, fmt.Errorf("stream: instance %q provider was trimmed from cancelled query %d: %w",
				inst.Signature, se.run.Circuit.Query.ID, ErrProviderNotRunning)
		}
		return se, nil
	}
	run, ok := e.running[inst.Owner]
	if !ok {
		return nil, fmt.Errorf("stream: instance %q owner query %d: %w", inst.Signature, inst.Owner, ErrProviderNotRunning)
	}
	for i, s := range run.Circuit.Services {
		if s.Plan == nil || s.Plan.Kind == query.KindSource || s.Signature != inst.Signature {
			continue
		}
		if s.Reused {
			// Adopted owner: it consumes the instance itself; follow its
			// tap to the executing provider.
			for _, t := range run.taps {
				if t.svc == i {
					se := &sharedExec{run: t.se.run, svc: t.se.svc}
					e.shared[inst] = se
					return se, nil
				}
			}
			continue
		}
		se := &sharedExec{run: run, svc: i}
		e.shared[inst] = se
		return se, nil
	}
	return nil, fmt.Errorf("stream: instance %q has no executing service in owner query %d: %w",
		inst.Signature, inst.Owner, ErrProviderNotRunning)
}

// rebuildSubsLocked reassembles a provider service's subscriber edge
// list from its taps, in deploy order — the copy-on-write publish point
// emitters load per tuple.
func (e *Engine) rebuildSubsLocked(r *Running, svc int) {
	rt := &r.svcs[svc]
	if len(rt.taps) == 0 {
		rt.subs.Store(nil)
		return
	}
	var edges []subEdge
	for _, t := range rt.taps {
		edges = append(edges, t.edges...)
	}
	rt.subs.Store(&edges)
}

// install makes op the operator of service idx and builds its port's
// overlay handler, which feeds op and emits downstream.
func (r *Running) install(idx int, op Operator) {
	rt := &r.svcs[idx]
	rt.operator = op
	emit := r.emitFor(idx)
	rt.handler = func(m overlay.Message) {
		side, t := tupleOf(&m)
		op.Process(side, t, emit)
	}
}

// emitFor builds the emission closure for service idx: each output tuple
// is sent from the service's current host to every downstream target's
// current route — own-circuit edges first, then cross-circuit
// subscriber edges — all resolved per tuple so live migrations and
// subscription changes re-route the dataflow without re-deploying.
func (r *Running) emitFor(idx int) Emit {
	e := r.engine
	rt := &r.svcs[idx]
	tr := e.cfg.Tracer // nil when tracing is off: SampleAt is then one nil check
	q := int(r.Circuit.Query.ID)
	return func(t Tuple) {
		from := topology.NodeID(r.host[idx].Load())
		node, lane := e.net.Node(from), e.net.ShardOf(from)
		// Hop tracing samples against the emitting node's private counter
		// and defers the emission through the clock's observation barrier:
		// both the sampling decision and the recorded event order become
		// pure functions of the node's own emission history, identical
		// under single-queue and sharded execution.
		if outs := rt.outs.Load(); outs != nil {
			for _, tgt := range *outs {
				to := topology.NodeID(r.route[tgt.svc].Load())
				r.lanes.Add(lane, laneUsageKBms, t.SizeKB*e.topo.Latency(from, to))
				if tr.SampleAt(e.net.TraceSampleCtr(from)) {
					hopTo, sizeKB := to, t.SizeKB
					e.net.ObserveAt(from, func(at time.Time) {
						tr.EmitAtTime(at, "engine", "hop", trace.Int("q", q), trace.Int("svc", idx),
							trace.Int("from", int(from)), trace.Int("to", int(hopTo)),
							trace.Num("size_kb", sizeKB))
					})
				}
				sendTuple(node, to, tgt.port, tgt.side, t)
			}
		}
		if subs := rt.subs.Load(); subs != nil {
			for _, sb := range *subs {
				to := topology.NodeID(sb.run.route[sb.svc].Load())
				sb.run.lanes.Add(lane, laneSharedIn, 1)
				sb.run.lanes.Add(lane, laneUsageKBms, t.SizeKB*e.topo.Latency(from, to))
				if tr.SampleAt(e.net.TraceSampleCtr(from)) {
					hopTo, sizeKB, subQ := to, t.SizeKB, int(sb.run.Circuit.Query.ID)
					e.net.ObserveAt(from, func(at time.Time) {
						tr.EmitAtTime(at, "engine", "hop_shared", trace.Int("q", q), trace.Int("svc", idx),
							trace.Int("sub_q", subQ),
							trace.Int("from", int(from)), trace.Int("to", int(hopTo)),
							trace.Num("size_kb", sizeKB))
					})
				}
				sendTuple(node, to, sb.port, sb.side, t)
			}
		}
	}
}

// produceInterval returns the clock duration between tuples for a
// simulated rate: one tuple every TupleSizeKB/rate simulated seconds.
func (e *Engine) produceInterval(rateKBs float64) time.Duration {
	simSec := e.cfg.TupleSizeKB / rateKBs
	interval := time.Duration(simSec * 1000 * float64(time.Millisecond))
	if interval <= 0 {
		interval = time.Microsecond
	}
	return interval
}

// producer is one source's tuple generation: one event that re-arms
// itself every interval. Each halts on its own — the zombie trim stops
// the producers that only feed a cancelled circuit's private services
// (by svc, the source's service index) while shared subtrees keep
// flowing. Halting is control code, which never runs while the
// producer's lane does, so stopped needs no lock.
type producer struct {
	svc     int
	ev      simtime.Event
	stopped bool
	// keys and vals are the next tuples' draws, made in bursts of
	// prodBurst: Int63n then NormFloat64 per tuple, the order a draw
	// per tuple makes, so every tuple keeps its bits while the rng's
	// state is walked in one pass instead of read cold per tuple. next
	// is the first unused draw.
	next int
	keys [prodBurst]int64
	vals [prodBurst]float64
}

// prodBurst is how many tuples a producer draws at once.
const prodBurst = 32

func (p *producer) halt() {
	p.stopped = true
	p.ev.Stop()
}

// startProducer schedules tuple emission as recurring clock events in
// the host node's domain: exactly one tuple per interval, no catch-up
// needed because virtual time never stalls. Producers are
// pinned (only operators migrate), so the host's shard executes every
// step — shard-locally, with no barrier crossings. Event keys are
// (instant, host, per-host sequence) in both execution modes: at one
// instant, producers fire in host-id order, ties within a host in
// deploy order, which is what makes same-seed runs bit-identical.
func (e *Engine) startProducer(svc int, host topology.NodeID, stream query.StreamID, rateKBs float64, seed int64, emit Emit) *producer {
	rng := rand.New(rand.NewSource(seed))
	interval := e.produceInterval(rateKBs)
	clk := e.clock
	dom := simtime.Domain(host)
	p := &producer{svc: svc, next: prodBurst}
	p.ev.Fn = func() {
		if p.stopped {
			return
		}
		if p.next == prodBurst {
			for i := range p.keys {
				p.keys[i] = rng.Int63n(e.cfg.Keyspace)
				p.vals[i] = rng.NormFloat64()
			}
			p.next = 0
		}
		emit(Tuple{
			Stream:  stream,
			Key:     p.keys[p.next],
			Value:   p.vals[p.next],
			SizeKB:  e.cfg.TupleSizeKB,
			Created: clk.DomainNow(dom),
		})
		p.next++
		if !p.stopped {
			clk.ScheduleEvent(&p.ev, dom, dom, interval)
		}
	}
	clk.ScheduleEvent(&p.ev, dom, dom, interval)
	return p
}

// Stop cancels a running circuit. Its own execution ends — producers
// halt, handlers are removed, its subscriptions on other circuits
// release — but services that other circuits reuse keep executing: the
// circuit lingers as a trimmed "zombie" (only the shared subtrees and
// the producers feeding them stay live) until the last subscriber
// releases it.
func (e *Engine) Stop(id query.QueryID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.running[id]
	if !ok {
		return fmt.Errorf("stream: query %d not running", id)
	}
	delete(e.running, id)
	e.retireLocked(r)
	return nil
}

// retireLocked ends a circuit's execution: full teardown when nothing
// subscribes to its services, a zombie trim otherwise.
func (e *Engine) retireLocked(r *Running) {
	if e.liveTapsLocked(r) > 0 {
		e.zombifyLocked(r)
		return
	}
	e.teardownLocked(r)
	e.dropProviderRecordsLocked(r)
	taps := r.taps
	r.taps = nil
	for _, t := range taps {
		e.releaseTapLocked(t)
	}
}

// liveTapsLocked counts subscriptions other circuits hold on r's
// services.
func (e *Engine) liveTapsLocked(r *Running) int {
	n := 0
	for i := range r.svcs {
		n += len(r.svcs[i].taps)
	}
	return n
}

// releaseTapLocked detaches one subscription from its provider and
// collapses the provider if it was a zombie waiting only on this tap.
func (e *Engine) releaseTapLocked(t *tap) {
	prov := t.se.run
	rt := &prov.svcs[t.se.svc]
	for i, pt := range rt.taps {
		if pt == t {
			rt.taps = append(rt.taps[:i], rt.taps[i+1:]...)
			break
		}
	}
	e.rebuildSubsLocked(prov, t.se.svc)
	if prov.zombie && e.liveTapsLocked(prov) == 0 {
		e.collapseZombieLocked(prov)
	}
}

// collapseZombieLocked fully tears down a zombie whose last subscriber
// released, cascading through providers it was itself subscribed to.
func (e *Engine) collapseZombieLocked(z *Running) {
	delete(e.zombies, z)
	e.teardownLocked(z)
	e.dropProviderRecordsLocked(z)
	taps := z.taps
	z.taps = nil
	for _, t := range taps {
		e.releaseTapLocked(t)
	}
}

// zombifyLocked trims a cancelled circuit down to the services other
// circuits subscribe to: the shared subtrees (and the producers and
// upstream operators feeding them) keep executing; everything else —
// the consumer sink, private branches, their producers — stops. Ports
// of trimmed services stay registered as drains so tuples already in
// flight are absorbed rather than counted as routing loss.
func (e *Engine) zombifyLocked(r *Running) {
	r.zombie = true
	e.zombies[r] = struct{}{}

	keep := make([]bool, len(r.svcs))
	var mark func(i int)
	mark = func(i int) {
		if keep[i] {
			return
		}
		keep[i] = true
		for _, l := range r.Circuit.Links {
			if l.To == i {
				mark(l.From)
			}
		}
	}
	for i := range r.svcs {
		if len(r.svcs[i].taps) > 0 {
			mark(i)
		}
	}
	r.kept = keep

	// Release this circuit's own subscriptions that only feed trimmed
	// services; keep the ones feeding a surviving shared subtree.
	var retained []*tap
	taps := r.taps
	r.taps = nil
	for _, t := range taps {
		if keep[t.svc] {
			retained = append(retained, t)
			continue
		}
		e.releaseTapLocked(t)
	}
	r.taps = retained

	for _, p := range r.prods {
		if !keep[p.svc] {
			p.halt()
		}
	}
	// In-flight migrations of trimmed services are cancelled; kept
	// services' handoffs proceed (their phase events check r.stop,
	// which a zombie leaves open).
	for _, m := range r.migs {
		if keep[m.Service] {
			continue
		}
		select {
		case <-m.done: // already complete; nothing in flight
		default:
			m.cancel()
			// The T0 state-transfer message may still be in flight to
			// the target whose side port cancel just unregistered;
			// absorb it rather than counting it as routing loss.
			e.net.Node(m.To).Register(m.rt.port+statePortSuffix, func(overlay.Message) {})
		}
	}
	for i := range r.svcs {
		rt := &r.svcs[i]
		if keep[i] {
			if outsp := rt.outs.Load(); outsp != nil {
				kept := make([]outEdge, 0, len(*outsp))
				for _, eg := range *outsp {
					if keep[eg.svc] {
						kept = append(kept, eg)
					}
				}
				rt.outs.Store(&kept)
			}
			continue
		}
		rt.outs.Store(nil)
		if rt.port != "" {
			drain := func(overlay.Message) {}
			e.net.Node(topology.NodeID(r.host[i].Load())).Register(rt.port, drain)
			// A service whose migration was just cancelled mid-handoff
			// has route pointing at the target (whose buffer m.cancel
			// unregistered); tuples already in flight there must drain
			// too, not count as routing loss.
			if to := r.route[i].Load(); to != r.host[i].Load() {
				e.net.Node(topology.NodeID(to)).Register(rt.port, drain)
			}
		}
	}
}

// dropProviderRecordsLocked forgets the instance→service records of a
// fully torn down circuit.
func (e *Engine) dropProviderRecordsLocked(r *Running) {
	for inst, se := range e.shared {
		if se.run == r {
			delete(e.shared, inst)
		}
	}
}

func (e *Engine) teardownLocked(r *Running) {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	for _, p := range r.prods {
		p.halt()
	}
	// Cancel in-flight migrations: pending phase timers are stopped and
	// waiters released before ports disappear. The explicit state-port
	// unregister also retires any drain the zombie trim left for an
	// in-flight state transfer (cancel no-ops on completed records).
	for _, m := range r.migs {
		m.cancel()
		e.net.Node(m.To).Unregister(m.rt.port + statePortSuffix)
	}
	// Unregister each service's port at its *current* host; a service
	// mid-handoff may also hold a forwarder or buffer registration on
	// its old host, which m.cancel released above. A trimmed zombie
	// service may additionally hold a drain on its route target
	// (cancelled-mid-handoff case) — drop that too.
	for i := range r.svcs {
		rt := &r.svcs[i]
		if rt.port == "" {
			continue
		}
		e.net.Node(topology.NodeID(r.host[i].Load())).Unregister(rt.port)
		if to := r.route[i].Load(); to != r.host[i].Load() {
			e.net.Node(topology.NodeID(to)).Unregister(rt.port)
		}
	}
}

// HaltProducers stops tuple generation for the circuit while leaving
// operators, routes, and measurement running — the quiesce step the
// loss-accounting tests use to let in-flight tuples drain before
// comparing produced and delivered counts.
func (r *Running) HaltProducers() {
	for _, p := range r.prods {
		p.halt()
	}
}

// TuplesProduced returns the number of tuples producers have injected.
func (r *Running) TuplesProduced() int { return int(r.lanes.Sum(laneTuplesIn)) }

// SharedIn returns the number of tuple deliveries the circuit received
// from shared instances executing in other circuits (one per
// subscription edge per emitted tuple).
func (r *Running) SharedIn() int { return int(r.lanes.Sum(laneSharedIn)) }

// Host returns the node a service currently executes on.
func (r *Running) Host(svc int) topology.NodeID {
	return topology.NodeID(r.host[svc].Load())
}

// Migrations returns the circuit's migration records, oldest first.
func (r *Running) Migrations() []*Migration {
	r.engine.mu.Lock()
	defer r.engine.mu.Unlock()
	return append([]*Migration(nil), r.migs...)
}

// SharedStats is a snapshot of the engine's shared-execution state.
type SharedStats struct {
	// Instances counts services currently executing with at least one
	// cross-circuit subscriber.
	Instances int
	// Subscribers counts subscriptions (consumer-circuit taps) across
	// those instances.
	Subscribers int
	// Zombies counts cancelled provider circuits kept alive, trimmed to
	// their shared subtrees, until their last subscriber releases.
	Zombies int
}

// SharedStats reports the engine's current shared-execution state.
func (e *Engine) SharedStats() SharedStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SharedStats{Zombies: len(e.zombies)}
	count := func(r *Running) {
		for i := range r.svcs {
			if n := len(r.svcs[i].taps); n > 0 {
				st.Instances++
				st.Subscribers += n
			}
		}
	}
	for _, r := range e.running {
		count(r)
	}
	for z := range e.zombies {
		count(z)
	}
	return st
}

// Close stops every running circuit, including zombies (the overlay
// network itself is owned by the caller). Teardown ends the spans of the
// handoffs still in flight, so its order is part of the trace: circuits
// go by query id, a live circuit before a zombie of the same id, and
// each circuit's handoffs by service index — never in map order.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	all := make([]*Running, 0, len(e.running)+len(e.zombies))
	for _, r := range e.running {
		all = append(all, r)
	}
	for z := range e.zombies {
		all = append(all, z)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Circuit.Query.ID != b.Circuit.Query.ID {
			return a.Circuit.Query.ID < b.Circuit.Query.ID
		}
		if a.zombie != b.zombie {
			return b.zombie
		}
		return a.started.Before(b.started)
	})
	for _, r := range all {
		sort.SliceStable(r.migs, func(i, j int) bool { return r.migs[i].Service < r.migs[j].Service })
		e.teardownLocked(r)
	}
	clear(e.running)
	clear(e.zombies)
	e.shared = make(map[*optimizer.ServiceInstance]*sharedExec)
}

// Measurement is a snapshot of a running circuit's delivered output and
// measured network usage, in simulated units.
type Measurement struct {
	Wall       time.Duration
	SimSeconds float64
	TuplesOut  int
	// OutRateKBs is the delivered data rate at the consumer (simulated
	// KB/s).
	OutRateKBs float64
	// MeanLatencyMs and P95LatencyMs are producer→consumer tuple
	// latencies in simulated milliseconds.
	MeanLatencyMs float64
	P95LatencyMs  float64
	// NetworkUsage is measured Σ rate·latency (KB·ms/s): the usage
	// integral divided by elapsed simulated time. Links from shared
	// instances into this circuit are charged here (to the subscriber),
	// mirroring the control plane's accounting.
	NetworkUsage float64
}

// Measure snapshots the circuit's counters since deployment. Wall is
// elapsed clock time.
func (r *Running) Measure() Measurement {
	wall := r.engine.clock.Since(r.started)
	simMs := r.engine.net.SimMillis(wall)
	simSec := simMs / 1000
	m := Measurement{
		Wall:          wall,
		SimSeconds:    simSec,
		TuplesOut:     r.tuplesOut,
		MeanLatencyMs: r.latencyMs.Mean(),
		P95LatencyMs:  r.latencyMs.Quantile(0.95),
	}
	if simSec > 0 {
		m.OutRateKBs = r.kbOut / simSec
		m.NetworkUsage = r.lanes.Sum(laneUsageKBms) / simSec
	}
	return m
}
