// Package failure turns the overlay's heartbeat traffic into
// liveness verdicts. The Detector consumes every delivered heartbeat
// through Network.ObserveHeartbeats (closing the "heartbeats are
// consumed by no one" gap), keeps per-node last-heard state, and runs
// a clock-paced check that walks the overlay in node-id order emitting
// Suspect, Dead, and Recovered events. Both the beats and the checks
// are scheduler events, so for a fixed seed and FaultPlan the event
// stream — node, kind, and timestamp — replays bit-identically.
//
// The detector is a timeout/φ-threshold hybrid in its simplest form:
// a node that misses SuspectMissed consecutive intervals becomes
// Suspect, DeadMissed intervals Dead, and any heartbeat from a
// Suspect/Dead node flips it back to Alive with a Recovered event at
// the next check. Tuning is a loss-vs-latency trade: under p
// per-message heartbeat loss the false-positive rate of a k-missed
// threshold is p^k per node per interval, while detection latency is
// bounded by (DeadMissed+1) intervals plus one check period.
//
// This is a centralized observer — the simulation's stand-in for the
// gossip/ring-monitor dissemination a production overlay would run.
// Scenarios pair it with StartHeartbeatsOpts(SkipDownTargets: true) so
// a crashed receiver cannot black-hole its predecessor's beats and
// cascade false positives along the ring.
package failure

import (
	"sync"
	"time"

	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// State is a node's liveness verdict.
type State int8

const (
	Alive State = iota
	Suspect
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Kind labels a detector event.
type Kind int8

const (
	Suspected Kind = iota
	Died
	Recovered
)

func (k Kind) String() string {
	switch k {
	case Suspected:
		return "suspect"
	case Died:
		return "dead"
	default:
		return "recovered"
	}
}

// Event is one liveness transition, stamped with the clock instant of
// the check that produced it.
type Event struct {
	Node topology.NodeID
	Kind Kind
	At   time.Time
}

// Config tunes the detector.
type Config struct {
	// Interval is the heartbeat period the overlay was started with —
	// the unit "missed intervals" is measured in.
	Interval time.Duration
	// SuspectMissed consecutive silent intervals turn a node Suspect
	// (default 2), DeadMissed turn it Dead (default 4).
	SuspectMissed int
	DeadMissed    int
	// Tracer, when set, receives one instant event per liveness
	// transition (suspect/dead/recovered). Nil disables tracing.
	Tracer *trace.Tracer
}

// DefaultConfig returns the standard tuning for a heartbeat interval.
func DefaultConfig(interval time.Duration) Config {
	return Config{Interval: interval, SuspectMissed: 2, DeadMissed: 4}
}

// Stats counts detector activity.
type Stats struct {
	Suspects   int
	Deaths     int
	Recoveries int
	Checks     int
}

// Detector watches heartbeat arrivals and emits liveness events.
type Detector struct {
	net *overlay.Network
	cfg Config

	mu        sync.Mutex
	lastHeard []time.Time
	state     []State
	events    []Event
	stats     Stats
	timer     *simtime.Event
	stopped   bool
}

// New installs a detector on the runtime (claiming the network's
// heartbeat-observer hook) and starts its check schedule. Every node
// starts Alive with a full grace period from now.
func New(net *overlay.Network, cfg Config) *Detector {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.SuspectMissed <= 0 {
		cfg.SuspectMissed = 2
	}
	if cfg.DeadMissed <= cfg.SuspectMissed {
		cfg.DeadMissed = cfg.SuspectMissed + 2
	}
	clk := net.Clock()
	numNodes := net.NumNodes()
	d := &Detector{
		net:       net,
		cfg:       cfg,
		lastHeard: make([]time.Time, numNodes),
		state:     make([]State, numNodes),
	}
	now := clk.Now()
	for i := range d.lastHeard {
		d.lastHeard[i] = now
	}
	// The observer receives the delivery's virtual time from the
	// network (under sharded execution it runs at window barriers, in
	// deterministic order) — never read the global clock here, which
	// would be stale relative to the delivering shard.
	net.ObserveHeartbeats(func(from, _ topology.NodeID, at time.Time) {
		d.mu.Lock()
		if int(from) < len(d.lastHeard) {
			d.lastHeard[from] = at
		}
		d.mu.Unlock()
	})
	var check func()
	check = func() {
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			return
		}
		d.checkLocked(clk.Now())
		d.timer = clk.AfterFunc(cfg.Interval, check)
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.timer = clk.AfterFunc(cfg.Interval, check)
	d.mu.Unlock()
	return d
}

// checkLocked sweeps every node in id order and applies transitions —
// the id order is what makes the event stream deterministic when
// several nodes cross a threshold in the same check.
func (d *Detector) checkLocked(now time.Time) {
	d.stats.Checks++
	suspectAfter := time.Duration(d.cfg.SuspectMissed) * d.cfg.Interval
	deadAfter := time.Duration(d.cfg.DeadMissed) * d.cfg.Interval
	for i := range d.state {
		silent := now.Sub(d.lastHeard[i])
		id := topology.NodeID(i)
		switch {
		case silent < suspectAfter:
			if d.state[i] != Alive {
				d.state[i] = Alive
				d.stats.Recoveries++
				d.events = append(d.events, Event{Node: id, Kind: Recovered, At: now})
				d.emitTransition(id, Recovered, silent)
			}
		case silent >= deadAfter:
			if d.state[i] != Dead {
				d.state[i] = Dead
				d.stats.Deaths++
				d.events = append(d.events, Event{Node: id, Kind: Died, At: now})
				d.emitTransition(id, Died, silent)
			}
		default:
			if d.state[i] == Alive {
				d.state[i] = Suspect
				d.stats.Suspects++
				d.events = append(d.events, Event{Node: id, Kind: Suspected, At: now})
				d.emitTransition(id, Suspected, silent)
			}
		}
	}
}

// emitTransition mirrors a liveness transition into the trace (no-op
// without a configured tracer).
func (d *Detector) emitTransition(id topology.NodeID, k Kind, silent time.Duration) {
	if !d.cfg.Tracer.Enabled() {
		return
	}
	d.cfg.Tracer.Emit("failure", k.String(),
		trace.Int("node", int(id)), trace.Dur("silent_ms", silent))
}

// Stop halts the check schedule and releases the observer hook.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	t := d.timer
	d.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	d.net.ObserveHeartbeats(nil)
}

// TakeEvents drains and returns the pending event queue in emission
// order. Clock event callbacks must not block, so consumers (the
// repair loop) poll this between sleeps instead of receiving on a
// channel.
func (d *Detector) TakeEvents() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	ev := d.events
	d.events = nil
	return ev
}

// State returns the current verdict for a node.
func (d *Detector) State(id topology.NodeID) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state[id]
}

// DeadNodes returns every currently-Dead node in id order.
func (d *Detector) DeadNodes() []topology.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var dead []topology.NodeID
	for i, s := range d.state {
		if s == Dead {
			dead = append(dead, topology.NodeID(i))
		}
	}
	return dead
}

// Stats returns a snapshot of the activity counters.
func (d *Detector) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
