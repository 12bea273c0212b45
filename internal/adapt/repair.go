// Failure repair: the unplanned counterpart of Evacuate. An evacuation
// drains a node the operator chose to retire — live handoffs, zero
// loss. Repair runs after the failure detector confirms a node died
// with no warning: circuits whose movable services were hosted there
// re-place onto live nodes through the same cost-space evacuation
// sweep, the engine re-instantiates the lost operators fresh (state
// and in-flight tuples are counted lost, never silently dropped), and
// circuits anchored to a dead endpoint — a pinned producer or the
// consumer itself — cancel, releasing or re-owning their shared
// instances.
package adapt

import (
	"errors"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// RepairStats reports one failure-repair round.
type RepairStats struct {
	// DeadNodes is the number of confirmed-dead nodes this round acted
	// on; CancelledCircuits counts circuits torn down because a pinned
	// endpoint (producer or consumer) died with its node.
	DeadNodes         int
	CancelledCircuits int
	// Planned counts moves the evacuation sweep produced for services
	// on dead nodes; Repaired of those committed. DataPlane counts
	// engine-side fresh re-instantiations (the rest were control-plane
	// only), Adopted the shared-instance re-owns among them.
	Planned   int
	Repaired  int
	DataPlane int
	Adopted   int
	// ZombieRepaired counts kept services of trimmed zombie circuits —
	// executing for subscribers but accounted by no deployed circuit —
	// that were re-instantiated off dead hosts.
	ZombieRepaired int
	// Unmovable counts pinned non-endpoint services stranded on dead
	// nodes (their circuits were cancelled), Aborted tickets that could
	// not commit.
	Unmovable int
	Aborted   int
	// BufferedLost counts tuples lost from cancelled in-flight handoff
	// buffers; StateLostKB sums operator state that died with its host.
	// Tuples dropped at dead hosts before repair are counted by the
	// overlay (msgs.down_dropped, faults.dropped).
	BufferedLost int
	StateLostKB  float64
	// Duration is clock time spent repairing (zero under the virtual
	// clock: repair route-flips are synchronous).
	Duration time.Duration
}

// Add accumulates another round's statistics into a.
func (a *RepairStats) Add(b RepairStats) {
	a.DeadNodes += b.DeadNodes
	a.CancelledCircuits += b.CancelledCircuits
	a.Planned += b.Planned
	a.Repaired += b.Repaired
	a.DataPlane += b.DataPlane
	a.Adopted += b.Adopted
	a.ZombieRepaired += b.ZombieRepaired
	a.Unmovable += b.Unmovable
	a.Aborted += b.Aborted
	a.BufferedLost += b.BufferedLost
	a.StateLostKB += b.StateLostKB
	a.Duration += b.Duration
}

// repair recovers every deployed circuit from the unannounced death of
// the given nodes:
//
//  1. The dead nodes are excluded as placement targets for this and
//     every later sweep (a Recovered event, via HandleFailures, lifts
//     the exclusion).
//  2. Circuits anchored to a dead endpoint — a pinned, non-reused
//     service on a dead node — cancel: their streams have no source or
//     sink anymore. Shared instances they owned survive through the
//     usual adoption path (a surviving consumer becomes owner of
//     record).
//  3. One evacuation sweep re-places every movable service hosted on a
//     dead node — including adopted shared instances executing in
//     trimmed zombies — onto live nodes near their cost-space ideal.
//  4. Each move runs the two-phase ticket protocol with the engine's
//     crash-repair path (fresh operator, immediate route flip) instead
//     of a live handoff: the source is dead, so state and in-flight
//     tuples are lost and counted rather than shipped.
//
// It is deterministic under the virtual clock: circuits cancel in
// query-id order and moves execute in sweep order.
func (co *Coordinator) repair(dead []topology.NodeID) (RepairStats, error) {
	clk := co.clock()
	start := clk.Now()
	stats := RepairStats{}
	if co.Exclude == nil {
		co.Exclude = make(map[topology.NodeID]bool)
	}
	if co.dead == nil {
		co.dead = make(map[topology.NodeID]bool)
	}
	for _, n := range dead {
		if !co.dead[n] {
			co.dead[n] = true
			stats.DeadNodes++
		}
		co.Exclude[n] = true
	}
	if stats.DeadNodes == 0 && !co.retryRepair {
		return stats, nil
	}
	co.retryRepair = false
	sp := co.beginSpan("adapt", "repair", trace.Int("dead_now", stats.DeadNodes),
		trace.Int("dead_total", len(co.dead)))
	defer func() {
		sp.End(trace.Int("cancelled", stats.CancelledCircuits), trace.Int("repaired", stats.Repaired),
			trace.Int("zombie", stats.ZombieRepaired), trace.Int("aborted", stats.Aborted),
			trace.Int("buffered_lost", stats.BufferedLost), trace.Num("state_lost_kb", stats.StateLostKB))
	}()
	// The sweep below covers the whole cumulative dead set, not just
	// this round's deaths: a move aborted earlier (its target itself
	// died undetected, say) is retried instead of stranding the service
	// on the corpse.
	deadSet := co.dead

	// Retire the dead nodes from the DHT before planning: their
	// published coordinates must stop answering mapping queries, the
	// fingers that routed through them repair, and catalog entries they
	// stored republish onto live owners.
	if cat := co.Dep.Env.Catalog(); cat != nil {
		cat.RepairAfterCrash(dead)
	}

	// Cancel circuits that lost an endpoint. Deterministic order: the
	// circuits map iterates randomly, so sort the ids.
	var doomed []query.QueryID
	for id, c := range co.Dep.Circuits() {
		for _, s := range c.Services {
			if s.Pinned && !s.Reused && deadSet[s.Node] {
				doomed = append(doomed, id)
				break
			}
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	for _, id := range doomed {
		if co.Engine != nil {
			if err := co.Engine.Stop(id); err != nil && !errors.Is(err, stream.ErrNotRunning) {
				return stats, err
			}
		}
		if err := co.Dep.Cancel(id); err != nil {
			return stats, err
		}
		stats.CancelledCircuits++
		sp.Emit("cancel_circuit", trace.Int("q", int(id)))
	}

	// One evacuation sweep over the dead set re-places everything
	// movable, adopted zombies included.
	plan, err := co.reopt().PlanEvacuation(deadSet)
	if err != nil {
		return stats, err
	}
	stats.Planned = len(plan.Moves)
	stats.Unmovable = plan.Unmovable

	for _, m := range plan.Moves {
		ticket, err := co.Dep.BeginMigration(m)
		if err != nil {
			stats.Aborted++
			sp.Emit("repair_abort", trace.Int("q", int(m.Query)), trace.Int("svc", m.Service),
				trace.Str("stage", "begin"))
			continue
		}
		if co.TicketTTL > 0 {
			ticket.Deadline = clk.Now().Add(co.TicketTTL)
		}
		if co.Engine != nil {
			var rec *stream.RepairRecord
			var rerr error
			if m.Adopted {
				c, ok := co.Dep.Circuit(m.Query)
				var inst *optimizer.ServiceInstance
				if ok && m.Service < len(c.Services) {
					inst = c.Services[m.Service].ReusedFrom
				}
				if inst == nil {
					rerr = stream.ErrNotRunning
				} else {
					rec, rerr = co.Engine.RepairShared(inst, m.To)
				}
			} else {
				rec, rerr = co.Engine.Repair(m.Query, m.Service, m.To)
			}
			switch {
			case rerr == nil:
				stats.DataPlane++
				if m.Adopted {
					stats.Adopted++
				}
				stats.BufferedLost += rec.BufferedLost
				stats.StateLostKB += rec.StateLostKB
			case errors.Is(rerr, stream.ErrNotRunning), errors.Is(rerr, stream.ErrProviderNotRunning):
				// Control-plane-only circuit: nothing executes.
			default:
				_ = ticket.Abort()
				stats.Aborted++
				sp.Emit("repair_abort", trace.Int("q", int(m.Query)), trace.Int("svc", m.Service),
					trace.Str("stage", "engine"))
				continue
			}
		}
		if err := ticket.CommitAt(clk.Now()); err != nil {
			stats.Aborted++
			sp.Emit("repair_abort", trace.Int("q", int(m.Query)), trace.Int("svc", m.Service),
				trace.Str("stage", "commit"))
			continue
		}
		stats.Repaired++
		if sp.Active() {
			adopted := 0
			if m.Adopted {
				adopted = 1
			}
			sp.Emit("repair_move", trace.Int("q", int(m.Query)), trace.Int("svc", m.Service),
				trace.Int("from", int(m.From)), trace.Int("to", int(m.To)), trace.Int("adopted", adopted))
		}
	}

	// Trimmed zombies execute services no deployed circuit accounts for
	// (the upstream closure feeding an adopted shared instance). The
	// evacuation sweep cannot see them, so ask the engine and re-place
	// each one on the live node nearest its dead host's coordinate.
	if co.Engine != nil {
		zs := co.Engine.ZombieServicesOn(func(n topology.NodeID) bool { return deadSet[n] })
		for _, z := range zs {
			to, ok := co.nearestLive(z.Node)
			if !ok {
				stats.Aborted++
				continue
			}
			rec, err := co.Engine.RepairZombieService(z.Query, z.Service, to)
			if err != nil {
				stats.Aborted++
				sp.Emit("repair_abort", trace.Int("q", int(z.Query)), trace.Int("svc", z.Service),
					trace.Str("stage", "zombie"))
				continue
			}
			stats.DataPlane++
			stats.ZombieRepaired++
			stats.BufferedLost += rec.BufferedLost
			stats.StateLostKB += rec.StateLostKB
			sp.Emit("repair_zombie", trace.Int("q", int(z.Query)), trace.Int("svc", z.Service),
				trace.Int("from", int(z.Node)), trace.Int("to", int(to)))
		}
	}
	// Aborted moves leave services stranded on dead hosts; the next
	// round retries them even if no new death triggers it.
	co.retryRepair = stats.Aborted > 0
	stats.Duration = clk.Since(start)
	return stats, nil
}

// nearestLive picks the live, non-excluded node closest (in the latency
// coordinate plane) to a dead host — where a zombie's orphaned service
// re-instantiates. Deterministic: ascending node-id scan, strict
// improvement.
func (co *Coordinator) nearestLive(dead topology.NodeID) (topology.NodeID, bool) {
	env := co.Dep.Env
	at := env.VecCoord(dead)
	best, bestD := topology.NodeID(-1), 0.0
	for i := 0; i < env.Topo.NumNodes(); i++ {
		n := topology.NodeID(i)
		if n == dead || co.Exclude[n] {
			continue
		}
		if d := env.VecCoord(n).Distance(at); best < 0 || d < bestD {
			best, bestD = n, d
		}
	}
	return best, best >= 0
}

// HandleFailures consumes a batch of failure-detector events: Died
// nodes repair in one sweep, Recovered nodes become placement targets
// again. Suspected events are ignored — repair waits for confirmation.
// Repair is synchronous, so nothing waits on cancel.
func (co *Coordinator) HandleFailures(events []failure.Event, cancel <-chan struct{}) (RepairStats, error) {
	var dead []topology.NodeID
	for _, ev := range events {
		switch ev.Kind {
		case failure.Died:
			dead = append(dead, ev.Node)
		case failure.Recovered:
			if co.Exclude != nil {
				delete(co.Exclude, ev.Node)
			}
			delete(co.dead, ev.Node)
			// A recovered node rejoins the DHT and republishes its
			// coordinate, becoming a mapping target again.
			if cat := co.Dep.Env.Catalog(); cat != nil {
				_ = cat.Rejoin(ev.Node, co.Dep.Env.Point(ev.Node))
			}
		}
	}
	return co.repair(dead)
}
