package optimizer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// ErrTicketExpired is returned by MigrationTicket.CommitAt when the
// ticket's deadline passed before the commit: the ticket is aborted
// (the target's provisional charge returned) and the service stays on
// its source.
var ErrTicketExpired = errors.New("optimizer: migration ticket deadline expired")

// Deployment tracks the circuits currently running in the SBON: it
// applies service load to hosting nodes, registers shareable instances,
// and accounts system-wide network usage (each physical link charged
// once, to the circuit that created it).
type Deployment struct {
	Env      *Env
	Registry *Registry

	circuits  map[query.QueryID]*Circuit
	instances map[query.QueryID][]*ServiceInstance // instances owned per query

	// gen counts membership/binding mutations (Deploy, Cancel, committed
	// migrations); the lazily rebuilt lookup indexes below invalidate on
	// it, PlanCache-style.
	gen    uint64
	idxGen uint64
	// incident maps a node to the deployed circuits with any service
	// bound to it — how an incremental sweep turns a dirty node into
	// affected circuits. consumers maps a shared instance to the reused
	// placements (and their circuits) referencing it — how a sweep
	// propagates an owner move to its consumers.
	incident  map[topology.NodeID][]query.QueryID
	consumers map[*ServiceInstance][]consumerRef
}

// consumerRef is one circuit's reused placement of a shared instance.
type consumerRef struct {
	svc *PlacedService
	id  query.QueryID
}

// NewDeployment returns an empty deployment over the environment.
func NewDeployment(env *Env, reg *Registry) *Deployment {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Deployment{
		Env:       env,
		Registry:  reg,
		circuits:  make(map[query.QueryID]*Circuit),
		instances: make(map[query.QueryID][]*ServiceInstance),
	}
}

// Deploy installs the circuit: charges load for its new services,
// registers them as shareable instances, and bumps refcounts on reused
// instances. It first re-points c at copies of its services, links and
// virtual coordinates, which migrations and re-optimization sweeps then
// write: a circuit from a batch shares them with the plan cache and
// every other answer of its key, and those stay as they were. The
// deployment, the stream engine and the caller's *Circuit see the one
// copy.
func (d *Deployment) Deploy(c *Circuit) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, ok := d.circuits[c.Query.ID]; ok {
		return fmt.Errorf("optimizer: query %d already deployed", c.Query.ID)
	}
	var b Builder
	b.carveStorage(c)
	truth := TrueLatency{Topo: d.Env.Topo}
	for i, s := range c.Services {
		if s.Plan == nil || s.Plan.Kind == query.KindSource {
			continue
		}
		if s.Reused {
			s.ReusedFrom.RefCount++
			continue
		}
		d.Env.AddServiceLoad(s.Node, s.InRate)
		inst := &ServiceInstance{
			Signature:       s.Signature,
			Node:            s.Node,
			Coord:           d.Env.Point(s.Node).Clone(),
			OutRate:         s.OutRate,
			InRate:          s.InRate,
			UpstreamLatency: c.upstreamLatency(i, truth),
			Owner:           c.Query.ID,
			RefCount:        1,
		}
		d.Registry.Register(inst)
		d.instances[c.Query.ID] = append(d.instances[c.Query.ID], inst)
	}
	d.circuits[c.Query.ID] = c
	d.gen++
	return nil
}

// rebuildIndexes refreshes the incident and consumer lookup maps when
// the deployment changed since they were last built. One O(services)
// rebuild is far cheaper than the sweep evaluations the indexes save,
// so no finer-grained maintenance is attempted.
func (d *Deployment) rebuildIndexes() {
	if d.incident != nil && d.idxGen == d.gen {
		return
	}
	d.incident = make(map[topology.NodeID][]query.QueryID, len(d.circuits))
	d.consumers = make(map[*ServiceInstance][]consumerRef)
	for _, c := range d.circuitsInOrder() {
		id := c.Query.ID
		for _, s := range c.Services {
			if s.Reused && s.ReusedFrom != nil {
				d.consumers[s.ReusedFrom] = append(d.consumers[s.ReusedFrom], consumerRef{svc: s, id: id})
			}
			ids := d.incident[s.Node]
			if len(ids) == 0 || ids[len(ids)-1] != id {
				d.incident[s.Node] = append(ids, id)
			}
		}
	}
	d.idxGen = d.gen
}

// IncidentCircuits returns the IDs, in ascending order, of deployed
// circuits with at least one service bound to the node. The slice is
// owned by the deployment's index; callers must not mutate it.
func (d *Deployment) IncidentCircuits(n topology.NodeID) []query.QueryID {
	d.rebuildIndexes()
	return d.incident[n]
}

// consumersOf returns the reused placements referencing the instance.
// The slice is owned by the deployment's index.
func (d *Deployment) consumersOf(inst *ServiceInstance) []consumerRef {
	d.rebuildIndexes()
	return d.consumers[inst]
}

// ownedInstance returns the shared instance the circuit's own (non-
// reused) service executes, or nil if the service was never registered
// (sources, consumer endpoints).
func (d *Deployment) ownedInstance(c *Circuit, s *PlacedService) *ServiceInstance {
	for _, inst := range d.instances[c.Query.ID] {
		if inst.Signature == s.Signature && inst.Node == s.Node {
			return inst
		}
	}
	return nil
}

// Cancel removes a deployed circuit, releasing its references. An
// instance is unregistered (and its load released) only when its last
// consuming circuit cancels — shared services keep running for their
// remaining consumers, matching the paper's shared-circuit semantics.
// When the owning circuit cancels while consumers remain, ownership of
// the instance is handed to the lowest-id surviving consumer: the
// instance stays registered, its load stays charged, and the last
// release still tears it down exactly once.
func (d *Deployment) Cancel(id query.QueryID) error {
	c, ok := d.circuits[id]
	if !ok {
		return fmt.Errorf("optimizer: query %d not deployed", id)
	}
	for _, s := range c.Services {
		// An adopted instance's consumer reference lives in the owned
		// list below; releasing it here too would double-count.
		if s.Reused && s.ReusedFrom != nil && s.ReusedFrom.Owner != id {
			d.release(s.ReusedFrom)
		}
	}
	delete(d.circuits, id)
	for _, inst := range d.instances[id] {
		inst.RefCount--
		if inst.RefCount <= 0 {
			d.Registry.Unregister(inst)
			d.Env.RemoveServiceLoad(inst.Node, inst.InRate)
			continue
		}
		d.transferOwnership(inst)
	}
	delete(d.instances, id)
	d.gen++
	return nil
}

// transferOwnership hands a still-referenced instance whose owner
// cancelled to the lowest-id surviving circuit that consumes it. The
// new owner's circuit keeps the service marked Reused (it does not
// contain the instance's upstream subtree), so the ownership reference
// now lives in the instances list instead of the reuse release path.
func (d *Deployment) transferOwnership(inst *ServiceInstance) {
	for _, c := range d.circuitsInOrder() {
		for _, s := range c.Services {
			if s.Reused && s.ReusedFrom == inst {
				inst.Owner = c.Query.ID
				d.instances[c.Query.ID] = append(d.instances[c.Query.ID], inst)
				return
			}
		}
	}
	// References held by no deployed circuit (out-of-order teardown):
	// nothing can release them later, so tear the instance down now.
	d.Registry.Unregister(inst)
	d.Env.RemoveServiceLoad(inst.Node, inst.InRate)
}

// release drops one reference to the instance, tearing it down when the
// last reference goes.
func (d *Deployment) release(inst *ServiceInstance) {
	inst.RefCount--
	if inst.RefCount <= 0 {
		d.Registry.Unregister(inst)
		d.Env.RemoveServiceLoad(inst.Node, inst.InRate)
	}
}

// Circuits returns the deployed circuits keyed by query.
func (d *Deployment) Circuits() map[query.QueryID]*Circuit { return d.circuits }

// circuitsInOrder returns the deployed circuits sorted by query ID — the
// deterministic sweep order re-optimization relies on.
func (d *Deployment) circuitsInOrder() []*Circuit {
	out := make([]*Circuit, 0, len(d.circuits))
	for _, c := range d.circuits {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query.ID < out[j].Query.ID })
	return out
}

// updateInstance moves the registry entry of a migrated service to its
// new node — and re-binds the placement of every circuit reusing the
// instance, so consumers' usage and latency accounting follows the
// move instead of silently pointing at the old host.
func (d *Deployment) updateInstance(c *Circuit, s *PlacedService, oldNode topology.NodeID) {
	d.gen++
	for _, inst := range d.instances[c.Query.ID] {
		if inst.Signature == s.Signature && inst.Node == oldNode {
			d.Registry.UpdateInstance(inst, s.Node, d.Env.Point(s.Node).Clone())
			for id, cc := range d.circuits {
				if id == c.Query.ID {
					continue
				}
				for _, cs := range cc.Services {
					if cs.Reused && cs.ReusedFrom == inst {
						cs.Node = s.Node
					}
				}
			}
			break
		}
	}
	// The move changes path latencies inside the owning circuit, for the
	// moved service's own instance and for every instance downstream of
	// it — refresh them all so consumer-latency accounting of reusing
	// circuits follows the move.
	d.refreshUpstreamLatencies(c)
}

// refreshUpstreamLatencies recomputes the recorded producer→instance
// latency of every instance the circuit owns against its current
// placement.
func (d *Deployment) refreshUpstreamLatencies(c *Circuit) {
	insts := d.instances[c.Query.ID]
	if len(insts) == 0 {
		return
	}
	truth := TrueLatency{Topo: d.Env.Topo}
	for i, s := range c.Services {
		if s.Plan == nil || s.Reused || s.Plan.Kind == query.KindSource {
			continue
		}
		for _, inst := range insts {
			if inst.Signature == s.Signature && inst.Node == s.Node {
				inst.UpstreamLatency = c.upstreamLatency(i, truth)
				break
			}
		}
	}
}

// MigrationTicket is an in-flight two-phase migration: between Begin and
// Commit/Abort the service's load is charged on BOTH hosts, so the cost
// space repels further placements from nodes already absorbing a
// handoff — the in-network view of in-flight state transfer (Benoit et
// al.).
type MigrationTicket struct {
	dep  *Deployment
	move Migration
	// charged is the input rate Begin actually charged to the target —
	// read back by Commit/Abort so the release always mirrors the
	// charge even if the plan's InRate field was stale or edited.
	charged float64
	open    bool
	// inst is set for adopted-owner moves: the shared instance this
	// ticket relocates (the owning circuit holds only a Reused
	// placement of it — a trimmed zombie on the data plane).
	inst *ServiceInstance

	// Deadline, when set, bounds the ticket's life: CommitAt past it
	// aborts instead of committing. A crashed host mid-handoff (or a
	// wedged data plane) then can't leak the double-charged in-flight
	// load forever — the adaptation layer stamps deadlines on every
	// ticket it opens.
	Deadline time.Time
}

// BeginMigration opens a two-phase migration of the move's service: the
// target node is charged the service's load immediately while the source
// keeps its charge until Commit. The circuit still routes through the
// source host; only cost-space accounting changes.
func (d *Deployment) BeginMigration(m Migration) (*MigrationTicket, error) {
	c, ok := d.circuits[m.Query]
	if !ok {
		return nil, fmt.Errorf("optimizer: query %d not deployed", m.Query)
	}
	if m.Service < 0 || m.Service >= len(c.Services) {
		return nil, fmt.Errorf("optimizer: query %d has no service %d", m.Query, m.Service)
	}
	s := c.Services[m.Service]
	if s.Reused {
		inst := s.ReusedFrom
		if inst != nil && inst.Owner == m.Query {
			// Adopted-owner move: the original owner cancelled and this
			// circuit inherited the instance, but its placement here is
			// Reused (the executing operator is a trimmed zombie on the
			// data plane). The adopter is the instance's owner of record,
			// so it — and only it — may relocate the instance.
			if inst.Node != m.From {
				return nil, fmt.Errorf("optimizer: query %d's adopted instance %q is on node %d, not %d",
					m.Query, inst.Signature, inst.Node, m.From)
			}
			d.Env.AddServiceLoad(m.To, inst.InRate)
			return &MigrationTicket{dep: d, move: m, charged: inst.InRate, open: true, inst: inst}, nil
		}
		// A non-owner circuit must never move a shared instance: the
		// move would double-charge the instance's load on the target
		// while the operator keeps executing inside its owner. Shared
		// instances migrate through the owning circuit's own (non-
		// reused) service, which re-binds every consumer at Commit.
		owner := query.QueryID(-1)
		if inst != nil {
			owner = inst.Owner
		}
		return nil, fmt.Errorf("optimizer: query %d service %d reuses an instance owned by query %d; only the owner may migrate it",
			m.Query, m.Service, owner)
	}
	if s.Pinned || s.Plan == nil {
		return nil, fmt.Errorf("optimizer: query %d service %d is pinned", m.Query, m.Service)
	}
	if s.Node != m.From {
		return nil, fmt.Errorf("optimizer: query %d service %d is on node %d, not %d",
			m.Query, m.Service, s.Node, m.From)
	}
	d.Env.AddServiceLoad(m.To, s.InRate)
	return &MigrationTicket{dep: d, move: m, charged: s.InRate, open: true}, nil
}

// Commit finishes the migration: the source's charge is released, the
// service re-binds to the target, and the instance registry follows. The
// load accounting lands exactly where a fresh deployment onto the target
// would have put it — the fixed point the invariant tests pin.
func (t *MigrationTicket) Commit() error {
	if !t.open {
		return fmt.Errorf("optimizer: migration ticket already closed")
	}
	t.open = false
	d, m := t.dep, t.move
	c, ok := d.circuits[m.Query]
	if !ok {
		return fmt.Errorf("optimizer: query %d vanished mid-migration", m.Query)
	}
	d.Env.RemoveServiceLoad(m.From, t.charged)
	if t.inst != nil {
		// Adopted-owner move: re-bind the instance and every consuming
		// placement (including the adopter's own Reused entry).
		d.Registry.UpdateInstance(t.inst, m.To, d.Env.Point(m.To).Clone())
		for _, cc := range d.circuits {
			for _, cs := range cc.Services {
				if cs.Reused && cs.ReusedFrom == t.inst {
					cs.Node = m.To
				}
			}
		}
		d.gen++
		return nil
	}
	s := c.Services[m.Service]
	s.Node = m.To
	d.updateInstance(c, s, m.From)
	return nil
}

// Expired reports whether the ticket has a deadline in the past at
// `now`.
func (t *MigrationTicket) Expired(now time.Time) bool {
	return !t.Deadline.IsZero() && now.After(t.Deadline)
}

// CommitAt is Commit with deadline enforcement: a ticket whose
// deadline passed is aborted instead — the target's provisional
// charge returns and ErrTicketExpired is reported, leaving the load
// accounting exactly where it was before Begin.
func (t *MigrationTicket) CommitAt(now time.Time) error {
	if t.open && t.Expired(now) {
		if err := t.Abort(); err != nil {
			return err
		}
		return ErrTicketExpired
	}
	return t.Commit()
}

// Abort cancels the migration, releasing the target's provisional
// charge; the service never moves.
func (t *MigrationTicket) Abort() error {
	if !t.open {
		return fmt.Errorf("optimizer: migration ticket already closed")
	}
	t.open = false
	t.dep.Env.RemoveServiceLoad(t.move.To, t.charged)
	return nil
}

// Circuit returns the deployed circuit for a query.
func (d *Deployment) Circuit(id query.QueryID) (*Circuit, bool) {
	c, ok := d.circuits[id]
	return c, ok
}

// NumDeployed returns the number of running circuits.
func (d *Deployment) NumDeployed() int { return len(d.circuits) }

// TotalUsage sums network usage across all deployed circuits under the
// model. Shared links are charged only to their owning circuit, so each
// physical stream is counted exactly once. Both totals sum in query order.
func (d *Deployment) TotalUsage(m LatencyModel) float64 {
	var sum float64
	for _, c := range d.circuitsInOrder() {
		sum += c.NetworkUsage(m)
	}
	return sum
}

// TotalLoadPenalty sums the load penalty of all deployed circuits.
func (d *Deployment) TotalLoadPenalty() float64 {
	var sum float64
	for _, c := range d.circuitsInOrder() {
		sum += c.LoadPenalty(d.Env)
	}
	return sum
}
