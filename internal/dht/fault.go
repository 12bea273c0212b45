// DHT fault tolerance: the ring's behavior when the overlay injects
// loss and nodes crash without goodbye. Lookups treat every hop as an
// RPC that a drop oracle may fail and retry it with capped exponential
// backoff; a crashed peer leaves the ring without migrating its stored
// entries (they died with the host — unlike a graceful RemovePeer), and
// the fingers that routed through it are at once its successor, the
// state Chord stabilization converges to once the failure is detected.
// Catalog.RepairAfterCrash restores catalog integrity afterwards:
// dead publishers retire, surviving publishers whose entries were
// stored at a crashed peer republish onto the new owners.
package dht

import (
	"math/bits"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// RingFaults configures fault-injected RPC behavior for ring lookups.
// Drop is the per-attempt oracle — typically wired from the overlay
// fault injector's RPCOracle so DHT loss shares the scripted fault
// plan (its own seeded stream keeps the draw sequences independent).
type RingFaults struct {
	// Drop reports whether one RPC attempt from -> to is lost. Nil
	// disables fault injection entirely.
	Drop func(from, to topology.NodeID) bool
}

// A dropped RPC is retried up to maxRetries times beyond the first
// attempt. The simulated wait before the first retry is backoffBase; it
// doubles per retry up to backoffCap. The ring is synchronous under the
// virtual clock, so the backoff is accounted in FaultStats rather than
// slept — it is the latency a real deployment would pay, and what
// experiments report.
const (
	maxRetries  = 3
	backoffBase = 50 * time.Millisecond
	backoffCap  = 400 * time.Millisecond
)

// RingFaultStats counts RPC outcomes since the last reset. Only
// populated while a drop oracle is installed.
type RingFaultStats struct {
	// RPCs counts hop RPCs issued; Retries re-attempts after a drop;
	// Failed RPCs that exhausted their retry budget (the lookup then
	// degrades to another finger or fails).
	RPCs    int
	Retries int
	Failed  int
	// Backoff is the simulated wait accumulated across all retries.
	Backoff time.Duration
}

// InstallFaults arms fault-injected RPC behavior on the ring,
// replacing any previous configuration and resetting the stats.
func (r *Ring) InstallFaults(f RingFaults) {
	r.faults = f
	r.fstats = RingFaultStats{}
}

// Faulty reports whether a drop oracle is installed (see Changes).
func (r *Ring) Faulty() bool { return r.faults.Drop != nil }

// FaultStats returns the accumulated RPC fault counters.
func (r *Ring) FaultStats() RingFaultStats { return r.fstats }

// rpc performs one hop RPC from -> to under the installed drop oracle,
// retrying with capped exponential backoff. Reports whether the RPC
// eventually got through. Without an oracle every RPC succeeds.
func (r *Ring) rpc(from, to *Peer) bool {
	if r.faults.Drop == nil || from == to {
		return true
	}
	r.fstats.RPCs++
	backoff := backoffBase
	var waited time.Duration
	for attempt := 0; ; attempt++ {
		if !r.faults.Drop(from.node, to.node) {
			if attempt > 0 && r.tracer.Enabled() {
				r.tracer.Emit("dht", "rpc_retried",
					trace.Int("from", int(from.node)), trace.Int("to", int(to.node)),
					trace.Int("retries", attempt), trace.Dur("backoff_ms", waited))
			}
			return true
		}
		if attempt >= maxRetries {
			r.fstats.Failed++
			if r.tracer.Enabled() {
				r.tracer.Emit("dht", "rpc_failed",
					trace.Int("from", int(from.node)), trace.Int("to", int(to.node)),
					trace.Int("attempts", attempt+1), trace.Dur("backoff_ms", waited))
			}
			return false
		}
		r.fstats.Retries++
		r.fstats.Backoff += backoff
		waited += backoff
		backoff = min(2*backoff, backoffCap)
	}
}

// nextHop picks the best reachable forwarding target from cur toward
// k: preceding fingers highest-first (Chord's closest-preceding-finger
// order), degrading to lower fingers when an RPC exhausts its retry
// budget, and finally the immediate successor. Adjacent fingers often
// share a target, so a peer that just failed is not re-dialed back to
// back. Returns nil when nothing answers. Without a drop oracle the
// first qualifying finger always wins — the classic fault-free route.
//
// Finger i sits at least 2^i past cur, so it can precede k only if
// 2^i < k - cur.id on the circle: the scan starts at the highest such i
// and skips only fingers that would fail the interval test before any
// RPC. With k == cur.id the interval is the whole circle and the scan
// starts at the top.
func (r *Ring) nextHop(cur *Peer, k ID, succ *Peer) *Peer {
	var lastFailed *Peer
	top := 63
	if k != cur.id {
		top = min(top, bits.Len64(uint64(k-cur.id))-1)
	}
	for i := top; i >= 0; i-- {
		f := r.finger(cur, i)
		if f == cur || f == lastFailed || !inOpenInterval(cur.id, k, f.id) {
			continue
		}
		if r.rpc(cur, f) {
			return f
		}
		lastFailed = f
	}
	if r.rpc(cur, succ) {
		return succ
	}
	return nil
}

// CrashPeer removes an overlay node from the ring as an unannounced
// crash. Unlike the graceful RemovePeer, the peer's stored catalog
// entries are NOT migrated — they died with the host and stay lost
// until their publishers republish (Catalog.RepairAfterCrash does this
// for surviving publishers). Returns how many stored entries were lost.
func (r *Ring) CrashPeer(n topology.NodeID) (int, error) {
	p, err := r.remove(n)
	if err != nil {
		return 0, err
	}
	lost := len(p.flat)
	// Drop the dead entries so stale references cannot find the lost
	// copies.
	p.flat = nil
	return lost, nil
}

// CrashRepairReport summarizes one Catalog.RepairAfterCrash round.
type CrashRepairReport struct {
	// CrashedPeers counts ring members removed; EntriesLost the stored
	// entries that died with them (surviving publishers' copies — dead
	// publishers retire first and are counted in Unpublished instead).
	CrashedPeers int
	EntriesLost  int
	// Unpublished counts dead nodes' own coordinates retired from the
	// catalog; Republished surviving publishers re-stored on the new
	// owners of their keys.
	Unpublished int
	Republished int
}

// RepairAfterCrash restores catalog integrity after unannounced node
// crashes: the dead nodes' published coordinates retire (mapping
// queries must stop returning them as placement targets), their ring
// peers crash out without entry migration, and every surviving
// publisher whose entry was stored at a crashed peer republishes onto
// the key's new owner. Deterministic: dead nodes and republishes
// process in node-id order. Nodes already absent from the ring are
// skipped, so repeated repair of the same dead set is idempotent.
func (c *Catalog) RepairAfterCrash(dead []topology.NodeID) CrashRepairReport {
	var rep CrashRepairReport
	seen := make(map[topology.NodeID]bool, len(dead))
	ds := make([]topology.NodeID, 0, len(dead))
	for _, n := range dead {
		if !seen[n] {
			seen[n] = true
			ds = append(ds, n)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })

	// Retire dead publishers first, while their entries are still
	// stored at their keys' owners.
	for _, n := range ds {
		if _, ok := c.published[n]; ok {
			c.Unpublish(n)
			rep.Unpublished++
		}
	}
	crashed := make(map[*Peer]bool, len(ds))
	for _, n := range ds {
		p, ok := c.ring.PeerFor(n)
		if !ok {
			continue
		}
		lost, err := c.ring.CrashPeer(n)
		if err != nil {
			continue
		}
		crashed[p] = true
		rep.CrashedPeers++
		rep.EntriesLost += lost
	}
	if len(crashed) == 0 || c.ring.NumPeers() == 0 {
		return rep
	}

	// Surviving publishers whose stored copy died republish onto the
	// new owner. Join/leave migrations keep every stored entry at its
	// key's current owner, so presence there is the ground truth. The
	// published set does not change, so the version does not move.
	nodes := make([]topology.NodeID, 0, len(c.published))
	for n := range c.published {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		e := c.published[n]
		owner := c.ring.Owner(e.Key)
		if owner.find(e.Key, e.Node) < 0 {
			// Defensive: churn may have stranded a live copy off-owner;
			// remove it before re-storing.
			c.removeStored(e)
			owner.storeAdd(e)
			rep.Republished++
		}
	}
	return rep
}

// Rejoin re-adds a recovered node to the ring and publishes its
// coordinate — the inverse of RepairAfterCrash for a node that came
// back. No-op if the node is already a ring member.
func (c *Catalog) Rejoin(node topology.NodeID, p costspace.Point) error {
	if _, ok := c.ring.PeerFor(node); ok {
		return nil
	}
	if _, err := c.ring.AddPeer(node); err != nil {
		return err
	}
	_, err := c.Publish(node, p)
	return err
}
