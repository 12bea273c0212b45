package overlay

import (
	"math/rand"
	"sync"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// FaultPlan scripts unplanned failures: per-message drop probability,
// latency jitter, link cuts, partitions, and scheduled node crashes.
// Everything is derived from Seed and the clock, so the same plan on
// the same virtual-clock scenario replays bit-identically — faults are
// part of the simulation, not noise on top of it.
//
// The plan is declarative; Network.InstallFaults arms it. Relative
// times (LinkFault.At, NodeCrash.At, ...) are measured from the
// install instant.
type FaultPlan struct {
	// Seed drives every probabilistic decision the injector makes.
	Seed int64
	// DropProb is the global per-message drop probability applied to
	// every send (heartbeats included — the detector must ride through
	// ambient loss, that is the point).
	DropProb float64
	// JitterMs adds uniform extra latency in [0, JitterMs) simulated
	// milliseconds to every delivered message.
	JitterMs float64
	// Links are targeted per-link faults (cuts when DropProb == 1).
	Links []LinkFault
	// Partitions cut traffic crossing a group boundary during a window.
	Partitions []PartitionFault
	// Crashes schedules node deaths (and optional recoveries).
	Crashes []NodeCrash
}

// LinkFault degrades one directed link (or both directions) during a
// window. DropProb 1 is a clean cut.
type LinkFault struct {
	From, To      topology.NodeID
	Bidirectional bool
	DropProb      float64
	// At..Until bound the active window relative to install time;
	// Until == 0 means "until the end of the run".
	At, Until time.Duration
}

// PartitionFault cuts every message crossing between Group and the
// rest of the overlay during the window (Until == 0: forever).
type PartitionFault struct {
	Group     []topology.NodeID
	At, Until time.Duration
}

// NodeCrash kills a node at At (SetNodeDown true) and, when RecoverAt
// is positive, revives it at RecoverAt. Crashes are abrupt: no drain,
// no goodbye — in-flight data messages still arrive (they left the
// wire while the node lived), but post-mortem heartbeats are
// suppressed at dispatch so the failure detector is never fooled by a
// beat that outlived its sender.
type NodeCrash struct {
	Node      topology.NodeID
	At        time.Duration
	RecoverAt time.Duration
}

type linkKey struct{ from, to topology.NodeID }

type linkWindow struct {
	prob     float64
	from, to time.Time // zero `to` = open-ended
}

type partitionWindow struct {
	members  map[topology.NodeID]bool
	from, to time.Time
}

// FaultInjector is an armed FaultPlan. It is consulted on the send
// path and exposes the crash schedule (for detection-latency
// measurement) and a side-channel RPC drop oracle for the in-process
// DHT, which has no overlay messages of its own.
//
// The send path is lock-free: the link/partition tables are built at
// install time and only read afterwards (published by the atomic
// injector swap), and the probabilistic draws come from sendRng — one
// splitmix64 stream per *source node*, advanced only from that node's
// serial execution context. Per-source streams are what keep fault
// decisions identical between single-queue and sharded execution:
// each node's draw sequence depends only on its own send history, not
// on how sends from different nodes interleave globally.
type FaultInjector struct {
	net  *Network
	plan FaultPlan

	// sendRng[id+1] is node id's private draw state (index 0 is
	// reserved, mirroring Network.sampleCtr's origin indexing).
	sendRng []uint64

	links      map[linkKey][]linkWindow
	partitions []partitionWindow
	installed  time.Time

	mu     sync.Mutex
	rpcRng *rand.Rand // DHT oracle draws — a separate stream so DHT
	// lookups during planning don't perturb the data-plane sequence
	timers    []*simtime.Event
	stopped   bool
	crashAt   map[topology.NodeID]time.Time
	recoverAt map[topology.NodeID]time.Time
}

// splitmix64 advances *s and returns the next value of the stream —
// the standard SplitMix64 finalizer, chosen because one multiply-xor
// chain per draw is cheap enough for the per-message hot path.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// splitmixFloat draws a uniform float64 in [0, 1).
func splitmixFloat(s *uint64) float64 {
	return float64(splitmix64(s)>>11) / (1 << 53)
}

// InstallFaults arms the plan on the runtime. Only one injector is
// active at a time; installing replaces (and stops) any previous one.
// New counters: faults.dropped / faults.hb_dropped for injected
// message loss, faults.crashes / faults.recoveries for the node
// schedule.
func (n *Network) InstallFaults(plan FaultPlan) *FaultInjector {
	fi := &FaultInjector{
		net:       n,
		plan:      plan,
		rpcRng:    rand.New(rand.NewSource(plan.Seed*7919 + 1)),
		links:     make(map[linkKey][]linkWindow),
		crashAt:   make(map[topology.NodeID]time.Time),
		recoverAt: make(map[topology.NodeID]time.Time),
		installed: n.clock.Now(),
	}
	fi.sendRng = make([]uint64, n.NumNodes()+1)
	for i := range fi.sendRng {
		// Decorrelate the per-source streams: hash (seed, source) once
		// so stream i and stream i+1 share no prefix.
		s := uint64(plan.Seed)*0x9e3779b97f4a7c15 ^ (uint64(i)+1)*0xbf58476d1ce4e5b9
		fi.sendRng[i] = splitmix64(&s)
	}
	abs := func(d time.Duration, open bool) time.Time {
		if open && d == 0 {
			return time.Time{}
		}
		return fi.installed.Add(d)
	}
	for _, lf := range plan.Links {
		w := linkWindow{prob: lf.DropProb, from: abs(lf.At, false), to: abs(lf.Until, true)}
		fi.links[linkKey{lf.From, lf.To}] = append(fi.links[linkKey{lf.From, lf.To}], w)
		if lf.Bidirectional {
			fi.links[linkKey{lf.To, lf.From}] = append(fi.links[linkKey{lf.To, lf.From}], w)
		}
	}
	for _, pf := range plan.Partitions {
		members := make(map[topology.NodeID]bool, len(pf.Group))
		for _, id := range pf.Group {
			members[id] = true
		}
		fi.partitions = append(fi.partitions, partitionWindow{
			members: members, from: abs(pf.At, false), to: abs(pf.Until, true),
		})
	}
	crashes := n.Metrics.Counter("faults.crashes")
	recoveries := n.Metrics.Counter("faults.recoveries")
	for _, c := range plan.Crashes {
		c := c
		fi.timers = append(fi.timers, n.clock.AfterFunc(c.At, func() {
			fi.mu.Lock()
			dead := fi.stopped
			if !dead {
				fi.crashAt[c.Node] = n.clock.Now()
			}
			fi.mu.Unlock()
			if dead {
				return
			}
			n.SetNodeDown(c.Node, true)
			crashes.Inc()
			n.tracer.Load().Emit("overlay", "fault_crash", trace.Int("node", int(c.Node)))
		}))
		if c.RecoverAt > 0 {
			fi.timers = append(fi.timers, n.clock.AfterFunc(c.RecoverAt, func() {
				fi.mu.Lock()
				dead := fi.stopped
				if !dead {
					fi.recoverAt[c.Node] = n.clock.Now()
				}
				fi.mu.Unlock()
				if dead {
					return
				}
				n.SetNodeDown(c.Node, false)
				recoveries.Inc()
				n.tracer.Load().Emit("overlay", "fault_recover", trace.Int("node", int(c.Node)))
			}))
		}
	}
	if prev := n.faults.Swap(fi); prev != nil {
		prev.Stop()
	}
	return fi
}

// Stop cancels the injector's pending crash/recovery timers. Already
// applied faults stay applied.
func (fi *FaultInjector) Stop() {
	fi.mu.Lock()
	fi.stopped = true
	timers := fi.timers
	fi.timers = nil
	fi.mu.Unlock()
	for _, t := range timers {
		if t != nil {
			t.Stop()
		}
	}
}

// CrashTime returns the clock instant the node was crashed by the
// plan, and whether it has crashed yet.
func (fi *FaultInjector) CrashTime(id topology.NodeID) (time.Time, bool) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	t, ok := fi.crashAt[id]
	return t, ok
}

// CrashedNodes returns every node the plan has crashed so far, in the
// order the crashes fired.
func (fi *FaultInjector) CrashedNodes() []topology.NodeID {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	ids := make([]topology.NodeID, 0, len(fi.crashAt))
	for id := range fi.crashAt {
		ids = append(ids, id)
	}
	// Map order is random; sort by crash instant, ties by id.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			ta, tb := fi.crashAt[a], fi.crashAt[b]
			if tb.Before(ta) || (tb.Equal(ta) && b < a) {
				ids[j-1], ids[j] = b, a
			} else {
				break
			}
		}
	}
	return ids
}

// RPCOracle returns a deterministic drop oracle for in-process RPC
// layers (the DHT ring): each call draws from a dedicated seeded
// stream and reports whether a message from->to would have been lost,
// honoring the plan's global drop probability and any active
// link/partition cuts.
func (fi *FaultInjector) RPCOracle() func(from, to topology.NodeID) bool {
	return func(from, to topology.NodeID) bool {
		fi.mu.Lock()
		defer fi.mu.Unlock()
		p := fi.effectiveDrop(from, to, fi.net.clock.Now())
		if p <= 0 {
			return false
		}
		if p >= 1 {
			return true
		}
		return fi.rpcRng.Float64() < p
	}
}

// onSend decides the fate of one message sent at `now`: drop (true) or
// deliver with extraMs of injected latency. Called on the send path in
// the sender's execution context (its shard lane, under sharded
// execution) — lock-free, drawing only from the sender's private
// stream, so the decision sequence is a pure function of each node's
// own send history and replays identically however lanes interleave.
func (fi *FaultInjector) onSend(from, to topology.NodeID, now time.Time) (drop bool, extraMs float64) {
	rng := &fi.sendRng[int(from)+1]
	p := fi.effectiveDrop(from, to, now)
	if p >= 1 {
		return true, 0
	}
	if p > 0 && splitmixFloat(rng) < p {
		return true, 0
	}
	if fi.plan.JitterMs > 0 {
		extraMs = splitmixFloat(rng) * fi.plan.JitterMs
	}
	return false, extraMs
}

// effectiveDrop reads only install-time tables; safe from any context.
func (fi *FaultInjector) effectiveDrop(from, to topology.NodeID, now time.Time) float64 {
	p := fi.plan.DropProb
	active := func(lo, hi time.Time) bool {
		return !now.Before(lo) && (hi.IsZero() || now.Before(hi))
	}
	if ws, ok := fi.links[linkKey{from, to}]; ok {
		for _, w := range ws {
			if active(w.from, w.to) && w.prob > p {
				p = w.prob
			}
		}
	}
	for _, pw := range fi.partitions {
		if active(pw.from, pw.to) && pw.members[from] != pw.members[to] {
			return 1
		}
	}
	return p
}
