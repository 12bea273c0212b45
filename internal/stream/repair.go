// Crash repair: the unplanned-failure counterpart of live migration.
// A migration assumes a live source (three-phase handoff, zero loss);
// repair assumes the source is gone. The engine re-instantiates the
// operator fresh on a live node and flips the circuit's routes there —
// in-flight tuples and operator state on the dead host are lost and
// counted, never silently: crash recovery is bounded-loss by design,
// and the bound is what the experiments measure.
package stream

import (
	"fmt"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// RepairRecord describes one completed service repair.
type RepairRecord struct {
	Query   query.QueryID
	Service int
	From    topology.NodeID
	To      topology.NodeID
	At      time.Time
	// BufferedLost counts tuples that were queued in an in-flight
	// migration buffer this repair had to cancel — part of the crash's
	// measured loss.
	BufferedLost int
	// StateLostKB is the operator state that died with the old host.
	StateLostKB float64
}

// Repair re-instantiates a running circuit's operator service on a new
// host after its current host crashed. Unlike Migrate it does not
// require a live source: a fresh operator (empty state) registers on
// the target, the circuit's routes flip immediately, and any in-flight
// handoff of the service is cancelled with its buffered tuples counted
// lost (counter repair.buffered_lost). Safe to call for a service
// whose host is merely suspected — repair is idempotent in effect,
// though tuples in flight to the old host during the flip are lost
// either way (msgs.down_dropped when the host is down).
func (e *Engine) Repair(id query.QueryID, svc int, to topology.NodeID) (*RepairRecord, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.running[id]
	if !ok {
		return nil, fmt.Errorf("stream: query %d: %w", id, ErrNotRunning)
	}
	if svc < 0 || svc >= len(r.svcs) {
		return nil, fmt.Errorf("stream: query %d has no service %d", id, svc)
	}
	if r.Circuit.Services[svc].Reused {
		return nil, fmt.Errorf("stream: query %d service %d reuses a shared instance; repair it through RepairShared", id, svc)
	}
	return e.repairLocked(r, svc, to)
}

// RepairShared re-instantiates the executing service of a shared
// instance — which may live in a trimmed zombie of a cancelled
// circuit — on a new host, flipping every subscriber's routes. This is
// the data-plane half of an Adopted control-plane move.
func (e *Engine) RepairShared(inst *optimizer.ServiceInstance, to topology.NodeID) (*RepairRecord, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	se, err := e.resolveProviderLocked(inst)
	if err != nil {
		return nil, err
	}
	return e.repairLocked(se.run, se.svc, to)
}

func (e *Engine) repairLocked(r *Running, svc int, to topology.NodeID) (*RepairRecord, error) {
	rt := &r.svcs[svc]
	if rt.operator == nil {
		return nil, fmt.Errorf("stream: query %d service %d is not a repairable operator", r.Circuit.Query.ID, svc)
	}
	if int(to) < 0 || int(to) >= e.topo.NumNodes() {
		return nil, fmt.Errorf("stream: repair target %d out of range", to)
	}
	if e.net.NodeDown(to) {
		return nil, fmt.Errorf("stream: repair target %d is down", to)
	}
	from := topology.NodeID(r.host[svc].Load())
	if to == from {
		return nil, fmt.Errorf("stream: query %d service %d is already on node %d", r.Circuit.Query.ID, svc, to)
	}

	rec := &RepairRecord{
		Query:       r.Circuit.Query.ID,
		Service:     svc,
		From:        from,
		To:          to,
		At:          e.clock.Now(),
		StateLostKB: rt.operator.StateSizeKB(),
	}

	// Cancel any in-flight handoff of this service: its phases assume a
	// live source, and whatever the target buffered died with the
	// crash.
	if rt.migrating {
		for _, m := range r.migs {
			if m.Service != svc {
				continue
			}
			select {
			case <-m.done:
				continue
			default:
			}
			rec.BufferedLost += len(m.buf.msgs)
			m.cancel()
		}
		if rec.BufferedLost > 0 {
			e.net.Metrics.Counter("repair.buffered_lost").Add(float64(rec.BufferedLost))
		}
	}

	// Retire the old registrations. On a crashed host they are inert
	// (deliveries drop at dispatch), but the node may rejoin later and
	// must not resurrect a stale operator.
	e.net.Node(from).Unregister(rt.port)
	if rr := topology.NodeID(r.route[svc].Load()); rr != from {
		e.net.Node(rr).Unregister(rt.port)
	}

	// Fresh operator: the crashed host's state is gone. Rebuild the
	// processing chain exactly as Deploy wired it.
	op, err := OperatorFor(r.Circuit.Services[svc].Plan, e.cfg.Keyspace)
	if err != nil {
		return nil, err
	}
	r.install(svc, op)
	e.net.Node(to).Register(rt.port, rt.handler)

	// Flip the circuit — and every subscriber of the service — to the
	// new host in one locked step, mirroring a migration cutover.
	r.route[svc].Store(int32(to))
	r.host[svc].Store(int32(to))
	for _, t := range rt.taps {
		t.consumer.route[t.svc].Store(int32(to))
		t.consumer.host[t.svc].Store(int32(to))
	}
	e.net.Metrics.Counter("repair.services").Inc()
	return rec, nil
}

// ZombieService identifies a kept operator service of a trimmed zombie
// circuit — a cancelled provider still executing for its subscribers.
type ZombieService struct {
	Query   query.QueryID
	Service int
	Node    topology.NodeID
}

// ZombieServicesOn lists the operator services trimmed zombies still
// execute on nodes the predicate marks down. These services appear in
// no deployed circuit — the control plane cannot plan their recovery —
// so a failure-repair sweep must ask the engine about them directly.
// Sorted by (query, service) for deterministic repair order.
func (e *Engine) ZombieServicesOn(down func(topology.NodeID) bool) []ZombieService {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []ZombieService
	for z := range e.zombies {
		for i := range z.svcs {
			if z.svcs[i].operator == nil || !z.kept[i] {
				continue
			}
			n := topology.NodeID(z.host[i].Load())
			if down(n) {
				out = append(out, ZombieService{Query: z.Circuit.Query.ID, Service: i, Node: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].Service < out[j].Service
	})
	return out
}

// RepairZombieService re-instantiates a trimmed zombie's kept operator
// on a live node after its host crashed.
func (e *Engine) RepairZombieService(id query.QueryID, svc int, to topology.NodeID) (*RepairRecord, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for z := range e.zombies {
		if z.Circuit.Query.ID != id {
			continue
		}
		if svc < 0 || svc >= len(z.svcs) {
			break
		}
		return e.repairLocked(z, svc, to)
	}
	return nil, fmt.Errorf("stream: no zombie of query %d with service %d", id, svc)
}

// AbortForFailure cancels an in-flight migration whose source or
// target died (or whose ticket deadline expired) and restores a
// consistent data-plane state:
//
//   - Pre-cutover: the route flips back to the source, the target's
//     buffer and state ports retire, and buffered tuples are counted
//     lost (repair.buffered_lost — the target may have crashed with
//     them). The operator never moved; if the *source* is the dead
//     host, follow up with Repair to re-instantiate it elsewhere.
//   - Post-cutover: the operator already executes on the target, so
//     the handoff simply completes early — the forwarder on the old
//     host retires (it is inert if that host crashed) and the record
//     closes un-aborted. If the *target* is the dead host, follow up
//     with Repair.
//
// Returns whether the operator ended up on the target (true exactly
// when cutover had happened), so the control plane knows whether to
// commit or abort the matching ticket.
func (m *Migration) AbortForFailure() bool {
	e, r, rt := m.engine, m.running, m.rt
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-m.done:
		return !m.cutoverAt.IsZero()
	default:
	}
	if !m.cutoverAt.IsZero() {
		// Post-cutover: finish early instead of waiting out T2.
		if m.tearTimer != nil {
			m.tearTimer.Stop()
		}
		e.net.Node(m.From).Unregister(rt.port)
		m.Forwarded = m.fwd
		rt.migrating = false
		m.doneOnce.Do(func() { close(m.done) })
		return true
	}
	// Pre-cutover: the operator never left the source. Restore the
	// route and retire the target-side registrations.
	if m.cutTimer != nil {
		m.cutTimer.Stop()
	}
	lost := len(m.buf.msgs)
	m.buf.msgs = nil
	m.buf.closed = true
	if lost > 0 {
		e.net.Metrics.Counter("repair.buffered_lost").Add(float64(lost))
	}
	m.Buffered = lost
	r.route[m.Service].Store(int32(m.From))
	e.net.Node(m.To).Unregister(rt.port)
	e.net.Node(m.To).Unregister(rt.port + statePortSuffix)
	m.Aborted = true
	rt.migrating = false
	m.doneOnce.Do(func() { close(m.done) })
	return false
}
