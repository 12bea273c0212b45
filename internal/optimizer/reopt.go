package optimizer

import (
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// Reoptimizer implements the paper's local re-optimization (§3.3): "each
// node that hosts part of a circuit is capable of re-optimization ... a
// node can re-run placement and mapping for any service that it hosts.
// The result may be to migrate the service to a cooperating node."
//
// Planning is pure: every sweep runs against a copy-on-write ShadowEnv
// over the live environment, so simulated load shifts, re-bindings, and
// mapper lookups never mutate live loads, the k-NN index, or the DHT
// catalog — there is no rollback because there is nothing to roll back.
// A service migrates only when the estimated incident usage improves by
// more than ImprovementThreshold (hysteresis against oscillation under
// noisy coordinates).
//
// PlanIncremental consumes the environment's delta log and re-plans
// only the circuits the delta can affect — the incremental view
// maintenance that makes continuous adaptation cheap, and the planner
// every adaptation round runs. Plan re-plans everything and is the
// reference PlanIncremental is checked against. Sweeps re-place with
// placement.Relaxation.
type Reoptimizer struct {
	Dep *Deployment
	// Mapper remaps coordinates to nodes. A SourceMapper (OracleMapper,
	// VectorOnlyMapper) reads the view each entry point reads: a sweep's
	// shadow, so candidate lookups see simulated loads, or the live env
	// for RewriteStep. Other mappers (DHTMapper) are used as configured:
	// their lookups are pure reads of the live catalog.
	//
	// With a nil Mapper, Plan, PlanIncremental and PlanEvacuation sweep
	// with the exact oracle over the shadow even when the env has a DHT
	// catalog, while RewriteStep, like Integrated, maps through the DHT.
	// The sweeps stay on the oracle until the DHT mapper can read the
	// shadow's shifted loads: over the live catalog it plans worse moves,
	// and incremental re-planning is exact only under the oracle.
	Mapper placement.Mapper
	// Model estimates link latencies (default CoordLatency).
	Model LatencyModel
	// ImprovementThreshold is the minimum relative usage gain to migrate
	// (default 0.05).
	ImprovementThreshold float64
	// Exclude lists nodes migrations must not target — departing or
	// failed hosts during churn, for example. Services already on an
	// excluded node are still evaluated (and, with EvacuateExcluded on
	// the adaptation layer, forced off).
	Exclude map[topology.NodeID]bool
	// FullSweepFraction is the dirty-node fraction above which
	// PlanIncremental gives up on delta tracking and runs a full sweep
	// (default 0.25).
	FullSweepFraction float64
	// Tracer, when non-nil, records a span per Plan/PlanIncremental
	// with one decision event per move candidate: accepted moves carry
	// their predicted gain, rejected candidates their old/new costs —
	// the audit trail for "why did this service move (or not)?".
	Tracer *trace.Tracer

	// Incremental bookkeeping: the epoch watermark of the last
	// incremental sweep, the circuits whose planned moves were not yet
	// observed as applied, and the Exclude set the watermark was taken
	// under.
	primed      bool
	lastEpoch   uint64
	pending     []query.QueryID
	lastExclude map[topology.NodeID]bool
	// winnerDist caches, per evaluated service, the cost-space distance
	// from its ideal target to the mapping winner's point at the last
	// sweep that evaluated it (the mapping error). This is the exact
	// ball radius for delta tests: a node whose point stays farther
	// from the target than the last winner can neither win the mapping
	// nor enter the accept decision, so only deltas intruding inside
	// this radius (or touching the winner itself, caught by its logged
	// pre-delta point) can change the service's outcome.
	winnerDist map[*PlacedService]float64
}

// NewReoptimizer returns a re-optimizer over the deployment with default
// components.
func NewReoptimizer(dep *Deployment) *Reoptimizer {
	return &Reoptimizer{Dep: dep}
}

func (r *Reoptimizer) components() (placement.Mapper, LatencyModel, float64) {
	mapper := mapperOn(r.Mapper, r.Dep.Env.Catalog(), r.Dep.Env)
	model := r.Model
	if model == nil {
		model = CoordLatency{Env: r.Dep.Env}
	}
	thresh := r.ImprovementThreshold
	if thresh <= 0 {
		thresh = 0.05
	}
	return mapper, model, thresh
}

// sweepMapper is the mapper a sweep over sh maps with. It passes no
// catalog, so a nil Mapper becomes the oracle over the shadow: the policy
// Mapper's doc states.
func (r *Reoptimizer) sweepMapper(sh *ShadowEnv) placement.Mapper {
	return mapperOn(r.Mapper, nil, sh)
}

// Migration is one planned service move: the typed unit a control plane
// hands to the data plane. PredictedGain is the modelled service cost
// improvement (old − new, in KB·ms/s-equivalent units) under the
// sweep's sequential evaluation order.
type Migration struct {
	Query   query.QueryID
	Service int // index into the circuit's Services
	// Signature identifies the service's computed stream (stable across
	// the move).
	Signature string
	From, To  topology.NodeID
	InRate    float64
	// PredictedGain is the full service-cost improvement (incident usage
	// + load term); UsageGain isolates the incident network-usage part,
	// the paper's primary metric. Both are in KB·ms/s under the sweep's
	// latency model and may disagree in sign: a move can relieve an
	// overloaded host at the price of longer links.
	PredictedGain float64
	UsageGain     float64
	// Adopted marks the move of an adopted-owner shared instance: the
	// circuit owns the instance but holds only a Reused placement of it
	// (the executing operator is a trimmed zombie on the data plane).
	// The data plane must relocate the zombie's service, not one of the
	// circuit's own.
	Adopted bool
}

// MigrationPlan is the output of one re-optimization sweep before
// anything moves: an ordered list of service migrations plus the sweep's
// evaluation statistics. Moves are listed in the order the sweep
// accepted them; each move's gain was evaluated with all earlier moves
// assumed applied, so applying a plan in order reproduces the sweep's
// sequential semantics exactly.
type MigrationPlan struct {
	Moves             []Migration
	ServicesEvaluated int
	// Unmovable counts pinned services found on victim nodes during an
	// evacuation plan — endpoints that cannot be relocated.
	Unmovable int
}

// IncrementalStats describes how much of a sweep PlanIncremental
// actually ran.
type IncrementalStats struct {
	// DirtyNodes is the delta-log size consumed (0 on a full sweep
	// forced by bookkeeping rather than delta size).
	DirtyNodes int
	// AffectedCircuits counts the circuits marked for evaluation,
	// including in-sweep worklist expansions.
	AffectedCircuits int
	TotalCircuits    int
	// FullSweep reports that the sweep degenerated to a full re-plan;
	// Reason says why.
	FullSweep bool
	Reason    string
}

// Plan performs one re-optimization sweep over every deployed circuit —
// virtual re-placement, re-mapping, and hysteresis-thresholded move
// selection — and returns the selected moves without touching the
// deployment. The sweep simulates each accepted move on a private
// ShadowEnv (loads shifted, services re-bound, shared-instance
// consumers re-bound with their owner) so later candidates see its
// effect; live loads, bindings, the k-NN index, and the DHT catalog are
// never mutated. Unpinned services' Virtual coordinates are the one
// exception — they are derived placement scratch and hold the sweep's
// re-relaxed values afterwards (every sweep recomputes them from
// scratch).
//
// Circuits are swept in ascending query order, so a fixed environment
// yields a deterministic plan.
func (r *Reoptimizer) Plan() (MigrationPlan, error) {
	sh := NewShadow(r.Dep.Env)
	circuits := r.Dep.circuitsInOrder()
	sp := r.Tracer.Begin("optimizer", "plan", trace.Int("circuits", len(circuits)))
	plan, err := r.sweepShadow(sh, r.sweepMapper(sh), circuits, nil, sp)
	sp.End(trace.Int("evaluated", plan.ServicesEvaluated), trace.Int("moves", len(plan.Moves)))
	return plan, err
}

// PlanIncremental is Plan restricted to the circuits the environment's
// delta log can affect. It consumes the log (single-consumer: the log
// is compacted to the current epoch on success) and maintains an epoch
// watermark; the first call, a watermark invalidation (another consumer
// compacted past it), a change of the Exclude set, any sweep mapper but
// the oracle, or a delta touching more than FullSweepFraction of all
// nodes each degenerate to a full sweep.
//
// The affected set is exact, not heuristic: a circuit is re-planned if
// (a) any of its services sits on a dirty node (for a load-only delta,
// any of its movable services — pinned and reused incidence only enters
// link latencies, which a load change cannot move), (b) a dirty node's old
// or new point intrudes into the cost-space ball around one of its
// movable services' ideal targets (radius: the last evaluation's
// mapping error — the region where the mapping winner or the accept
// decision can change), or (c) an in-sweep accepted move perturbs it
// (load shift on the move's endpoints, or a shared-instance rebind).
// Circuits with moves planned but not yet observed as applied are
// carried into the next sweep's set. Everything else provably
// re-evaluates to "no move", so the returned plan is bit-identical to
// what a full Plan would produce on the same state.
func (r *Reoptimizer) PlanIncremental() (MigrationPlan, IncrementalStats, error) {
	env := r.Dep.Env
	circuits := r.Dep.circuitsInOrder()
	st := IncrementalStats{TotalCircuits: len(circuits)}
	epochNow := env.Epoch()

	sh := NewShadow(env)
	mapper := r.sweepMapper(sh)
	_, exact := mapper.(placement.OracleMapper)
	full, reason := false, ""
	switch {
	case !r.primed:
		full, reason = true, "first sweep"
	case env.DirtyCompactedThrough() > r.lastEpoch:
		full, reason = true, "delta log compacted past watermark"
	case !exact:
		full, reason = true, "custom mapper"
	case !sameExclude(r.Exclude, r.lastExclude):
		full, reason = true, "exclude set changed"
	}
	var delta []DirtyNode
	if !full {
		delta = env.DirtySince(r.lastEpoch)
		st.DirtyNodes = len(delta)
		frac := r.FullSweepFraction
		if frac <= 0 {
			frac = 0.25
		}
		if float64(len(delta)) > frac*float64(len(env.NodeIDs())) {
			full, reason = true, "delta too large"
		}
	}

	sp := r.Tracer.Begin("optimizer", "plan_incremental",
		trace.Int("circuits", len(circuits)), trace.Int("dirty_nodes", st.DirtyNodes))
	var plan MigrationPlan
	var err error
	if full {
		st.FullSweep, st.Reason = true, reason
		st.AffectedCircuits = len(circuits)
		sp.Emit("full_sweep", trace.Str("reason", reason))
		plan, err = r.sweepShadow(sh, mapper, circuits, nil, sp)
	} else {
		aff := r.affectedByDelta(delta, circuits)
		for _, id := range r.pending {
			aff[id] = true
		}
		plan, err = r.sweepShadow(sh, mapper, circuits, aff, sp)
		for _, c := range circuits {
			if aff[c.Query.ID] {
				st.AffectedCircuits++
			}
		}
	}
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return plan, st, err
	}
	sp.End(trace.Int("affected", st.AffectedCircuits),
		trace.Int("evaluated", plan.ServicesEvaluated), trace.Int("moves", len(plan.Moves)))

	r.primed = true
	r.lastEpoch = epochNow
	env.CompactDirty(epochNow)
	r.lastExclude = cloneExclude(r.Exclude)
	r.pending = r.pending[:0]
	for _, m := range plan.Moves {
		if len(r.pending) == 0 || r.pending[len(r.pending)-1] != m.Query {
			r.pending = append(r.pending, m.Query)
		}
	}
	return plan, st, nil
}

func sameExclude(a, b map[topology.NodeID]bool) bool {
	na, nb := 0, 0
	for n, v := range a {
		if v {
			na++
			if !b[n] {
				return false
			}
		}
	}
	for _, v := range b {
		if v {
			nb++
		}
	}
	return na == nb
}

func cloneExclude(m map[topology.NodeID]bool) map[topology.NodeID]bool {
	if len(m) == 0 {
		return nil
	}
	out := make(map[topology.NodeID]bool, len(m))
	for n, v := range m {
		if v {
			out[n] = true
		}
	}
	return out
}

// affectedByDelta computes the exact pre-sweep affected set for the
// delta: rule (a) incidence via the deployment's node index, rule (b)
// the winner-ball test around each movable service's stored ideal
// target, with the last evaluation's mapping error as the radius. A
// delta node whose old and new points both stay outside that ball
// cannot beat the last winner; the winner's own mutation is caught
// because its logged pre-delta point sits exactly on the ball boundary
// (hence <=, which also covers id tie-breaks), and the host's is rule
// (a). Stored Virtual coordinates and winner distances are current for
// unaffected circuits: virtual placement is deterministic and depends
// only on the circuit's structure and its pinned hosts' vector
// coordinates, and any change to those marks the circuit through rules
// (a)/(c) or forces a full sweep (re-embedding dirties every node).
func (r *Reoptimizer) affectedByDelta(delta []DirtyNode, circuits []*Circuit) map[query.QueryID]bool {
	aff := make(map[query.QueryID]bool)
	for _, d := range delta {
		for _, id := range r.Dep.IncidentCircuits(d.Node) {
			if aff[id] {
				continue
			}
			// A load-only delta leaves the node's latency coordinates —
			// and so every link cost — untouched; circuits present on the
			// node only through pinned or reused services keep all their
			// candidate costs, and only a movable service's own host
			// scalar can shift its accept decision. (The ball test below
			// still sees the node as a possible new mapping winner.)
			if d.LoadOnly && !r.movableOn(id, d.Node) {
				continue
			}
			aff[id] = true
		}
	}
	env := r.Dep.Env
	space := env.Space()
	var buf costspace.Point
	for _, c := range circuits {
		if aff[c.Query.ID] {
			continue
		}
		for _, s := range c.Services {
			if s.Pinned || s.Reused || s.Plan == nil {
				continue
			}
			wd, ok := r.winnerDist[s]
			if !ok || len(s.Virtual) == 0 {
				// Never evaluated by a recording sweep (or never
				// virtually placed): no ball to test, re-plan
				// conservatively.
				aff[c.Query.ID] = true
				break
			}
			buf = space.AppendIdealPoint(buf[:0], s.Virtual)
			hit := false
			for _, d := range delta {
				if space.Distance(buf, d.Prev) <= wd || space.Distance(buf, env.Point(d.Node)) <= wd {
					hit = true
					break
				}
			}
			if hit {
				aff[c.Query.ID] = true
				break
			}
		}
	}
	return aff
}

// movableOn reports whether the circuit hosts a movable (unpinned,
// non-reused, deployed) service on the node.
func (r *Reoptimizer) movableOn(id query.QueryID, n topology.NodeID) bool {
	c, ok := r.Dep.Circuit(id)
	if !ok {
		return true // unknown circuit: stay conservative
	}
	for _, s := range c.Services {
		if s.Pinned || s.Reused || s.Plan == nil {
			continue
		}
		if s.Node == n {
			return true
		}
	}
	return false
}

// expandAffected grows the affected set after an accepted in-sweep move:
// the move's endpoints changed load (ball test against their pre/post
// shadow points), and re-bound consumer circuits must re-cost. Only
// circuits after the cursor matter — earlier ones were already
// evaluated, exactly as a full sequential sweep would have seen them.
// Unlike the pre-sweep delta test, incidence here is restricted to
// movable services: a load shift touches only the scalar dimension, so
// a circuit whose presence on the endpoints is all pinned or reused
// services keeps every link latency and every candidate cost unchanged
// (its movable hosts' scalars live elsewhere; intrusions into their
// winner balls are what the point tests below catch).
func (r *Reoptimizer) expandAffected(sh *ShadowEnv, circuits []*Circuit, cursor int, aff map[query.QueryID]bool,
	from, to topology.NodeID, preFrom, preTo costspace.Point, consumers []query.QueryID) {
	for _, id := range consumers {
		aff[id] = true
	}
	space := sh.Space()
	var buf costspace.Point
	for j := cursor + 1; j < len(circuits); j++ {
		c := circuits[j]
		if aff[c.Query.ID] {
			continue
		}
		marked := false
		for _, s := range c.Services {
			if s.Pinned || s.Reused || s.Plan == nil {
				continue
			}
			if n := sh.NodeOf(s); n == from || n == to {
				marked = true
				break
			}
		}
		if !marked {
			for _, s := range c.Services {
				if s.Pinned || s.Reused || s.Plan == nil {
					continue
				}
				wd, ok := r.winnerDist[s]
				if !ok || len(s.Virtual) == 0 {
					marked = true
					break
				}
				buf = space.AppendIdealPoint(buf[:0], s.Virtual)
				if space.Distance(buf, preFrom) <= wd || space.Distance(buf, sh.Point(from)) <= wd ||
					space.Distance(buf, preTo) <= wd || space.Distance(buf, sh.Point(to)) <= wd {
					marked = true
					break
				}
			}
		}
		if marked {
			aff[c.Query.ID] = true
		}
	}
}

// sweepShadow is the shared sweep body: evaluate every unpinned
// deployed service of the listed circuits against the shadow, mapping
// with the sweep's mapper and accepting moves that clear the hysteresis
// threshold. aff == nil sweeps every
// circuit; otherwise only circuits marked in aff are evaluated and the
// set is expanded as accepted moves perturb the shadow. sp is the
// enclosing plan span; each move candidate that changes host emits one
// accept/reject decision event into it.
func (r *Reoptimizer) sweepShadow(sh *ShadowEnv, mapper placement.Mapper, circuits []*Circuit, aff map[query.QueryID]bool, sp trace.Span) (MigrationPlan, error) {
	_, model, thresh := r.components()
	b := &Builder{Env: r.Dep.Env}
	if aff == nil {
		// Full sweep: rebuild the winner-distance cache from scratch so
		// entries for cancelled circuits' services don't accumulate.
		r.winnerDist = make(map[*PlacedService]float64)
	} else if r.winnerDist == nil {
		r.winnerDist = make(map[*PlacedService]float64)
	}
	var plan MigrationPlan
	for ci, c := range circuits {
		if aff != nil && !aff[c.Query.ID] {
			continue
		}
		// Recompute virtual coordinates for the whole circuit against
		// current pinned/neighbor positions (a node with all affected
		// services can do full local re-placement).
		if err := b.placeVirtualAs(c, placement.Relaxation{}, sh.NodeOf); err != nil {
			return plan, err
		}
		for i, s := range c.Services {
			// Reused services are never move candidates from a consumer
			// circuit: the instance belongs to (and migrates with) its
			// owner. The explicit check is belt-and-suspenders — the
			// builder pins reused services — so a circuit edited or
			// built elsewhere cannot sneak a non-owned move into a plan.
			if s.Pinned || s.Reused || s.Plan == nil {
				continue
			}
			plan.ServicesEvaluated++
			oldNode := sh.NodeOf(s)
			newNode, ms, err := mapper.MapCoord(c.Query.Consumer, s.Virtual, r.Exclude)
			if err != nil {
				return plan, err
			}
			// Record the mapping error — the distance from the ideal
			// target to the winner's point — as this service's delta-test
			// ball radius for the next incremental sweep.
			r.winnerDist[s] = ms.Error
			if newNode == oldNode {
				continue
			}
			// Cost the incumbent only for actual move candidates: in a
			// converged sweep nearly every service maps back to its
			// current host and skips these link walks entirely.
			oldCost := shadowServiceCost(sh, c, i, model)
			oldUsage := shadowIncidentUsage(sh, c, i, model)
			sh.Rebind(s, newNode)
			newCost := shadowServiceCost(sh, c, i, model)
			if newCost < oldCost*(1-thresh) {
				// Accept: shift the load and propagate shared-instance
				// re-bindings so later candidates see the move.
				preFrom, preTo := sh.Point(oldNode), sh.Point(newNode)
				sh.ShiftLoad(oldNode, newNode, s.InRate)
				consumers := r.propagateRebind(sh, c, s, newNode)
				plan.Moves = append(plan.Moves, Migration{
					Query:         c.Query.ID,
					Service:       i,
					Signature:     s.Signature,
					From:          oldNode,
					To:            newNode,
					InRate:        s.InRate,
					PredictedGain: oldCost - newCost,
					UsageGain:     oldUsage - shadowIncidentUsage(sh, c, i, model),
				})
				if sp.Active() {
					sp.Emit("accept", trace.Int("q", int(c.Query.ID)), trace.Int("svc", i),
						trace.Int("from", int(oldNode)), trace.Int("to", int(newNode)),
						trace.Num("old_cost", oldCost), trace.Num("new_cost", newCost),
						trace.Num("gain", oldCost-newCost))
				}
				if aff != nil {
					r.expandAffected(sh, circuits, ci, aff, oldNode, newNode, preFrom, preTo, consumers)
				}
			} else {
				sh.Rebind(s, oldNode)
				if sp.Active() {
					sp.Emit("reject", trace.Int("q", int(c.Query.ID)), trace.Int("svc", i),
						trace.Int("from", int(oldNode)), trace.Int("candidate", int(newNode)),
						trace.Num("old_cost", oldCost), trace.Num("new_cost", newCost))
				}
			}
		}
	}
	return plan, nil
}

// propagateRebind re-binds, in the shadow, every consumer circuit's
// reused placement of the shared instance the accepted move carries —
// the in-sweep equivalent of the re-binding Deployment.updateInstance
// performs at Commit. Without it, later candidates in the same sweep
// cost consumer circuits against the instance's stale host. Returns the
// consumer circuits for worklist expansion.
func (r *Reoptimizer) propagateRebind(sh *ShadowEnv, c *Circuit, s *PlacedService, to topology.NodeID) []query.QueryID {
	inst := r.Dep.ownedInstance(c, s)
	if inst == nil {
		return nil
	}
	var ids []query.QueryID
	for _, ref := range r.Dep.consumersOf(inst) {
		sh.Rebind(ref.svc, to)
		ids = append(ids, ref.id)
	}
	return ids
}

// PlanEvacuation plans the forced relocation of every unpinned service
// hosted on a victim node — the graceful-decommission path node churn
// takes before a host leaves the overlay. Unlike Plan, moves are not
// gated on the improvement threshold (the hosts are going away);
// victims and the Reoptimizer's Exclude set are both barred as targets.
// Pinned services (producers, consumers) on victim nodes cannot move
// and are counted in the plan's Unmovable field.
//
// Like Plan, the sweep is pure: accepted moves are simulated on a
// ShadowEnv (with shared-instance consumers re-bound in-sweep) and the
// live environment is untouched.
func (r *Reoptimizer) PlanEvacuation(victims map[topology.NodeID]bool) (MigrationPlan, error) {
	_, model, _ := r.components()
	exclude := victims
	if len(r.Exclude) > 0 {
		exclude = make(map[topology.NodeID]bool, len(victims)+len(r.Exclude))
		for n := range victims {
			exclude[n] = true
		}
		for n := range r.Exclude {
			exclude[n] = true
		}
	}
	sh := NewShadow(r.Dep.Env)
	mapper := r.sweepMapper(sh)
	b := &Builder{Env: r.Dep.Env}
	sp := r.Tracer.Begin("optimizer", "plan_evacuation", trace.Int("victims", len(victims)))
	var plan MigrationPlan
	for _, c := range r.Dep.circuitsInOrder() {
		hit := false
		for _, s := range c.Services {
			if victims[sh.NodeOf(s)] {
				if s.Reused {
					if s.ReusedFrom != nil && s.ReusedFrom.Owner == c.Query.ID {
						// Adopted-owner zombie: the original owner is gone
						// and no other circuit will ever move this instance
						// — plan its relocation here or the node stays
						// un-evacuable.
						hit = true
					}
					// Otherwise it moves with its owning circuit; the
					// owner's own evacuation entry relocates it (and the
					// sweep re-binds this consumer in the shadow), so it is
					// neither a victim of this circuit nor unmovable.
					continue
				}
				if s.Pinned || s.Plan == nil {
					plan.Unmovable++
					continue
				}
				hit = true
			}
		}
		if !hit {
			continue
		}
		if err := b.placeVirtualAs(c, placement.Relaxation{}, sh.NodeOf); err != nil {
			sp.End(trace.Str("error", err.Error()))
			return plan, err
		}
		for i, s := range c.Services {
			adopted := s.Reused && s.ReusedFrom != nil && s.ReusedFrom.Owner == c.Query.ID
			if adopted {
				// Builders pin reused placements, but an adopted one is
				// movable by its owner of record — the pin only bars
				// non-owner moves.
				if !victims[sh.NodeOf(s)] {
					continue
				}
			} else if s.Pinned || s.Reused || s.Plan == nil || !victims[sh.NodeOf(s)] {
				continue
			}
			plan.ServicesEvaluated++
			oldNode := sh.NodeOf(s)
			inRate := s.InRate
			vec := s.Virtual
			if adopted {
				// The zombie's subtree is not part of this circuit, so
				// virtual placement computed nothing for it; the best
				// stand-in for its ideal target is its current host's
				// vector coordinate — "the nearest live node to where it
				// was".
				inRate = s.ReusedFrom.InRate
				vec = r.Dep.Env.VecCoord(oldNode)
			}
			oldCost := shadowServiceCost(sh, c, i, model)
			oldUsage := shadowIncidentUsage(sh, c, i, model)
			newNode, _, err := mapper.MapCoord(c.Query.Consumer, vec, exclude)
			if err != nil {
				sp.End(trace.Str("error", err.Error()))
				return plan, err
			}
			sh.Rebind(s, newNode)
			newCost := shadowServiceCost(sh, c, i, model)
			sh.ShiftLoad(oldNode, newNode, inRate)
			r.propagateRebind(sh, c, s, newNode)
			plan.Moves = append(plan.Moves, Migration{
				Query:         c.Query.ID,
				Service:       i,
				Signature:     s.Signature,
				From:          oldNode,
				To:            newNode,
				InRate:        inRate,
				PredictedGain: oldCost - newCost, // may be negative: forced move
				UsageGain:     oldUsage - shadowIncidentUsage(sh, c, i, model),
				Adopted:       adopted,
			})
			if sp.Active() {
				sp.Emit("evac_move", trace.Int("q", int(c.Query.ID)), trace.Int("svc", i),
					trace.Int("from", int(oldNode)), trace.Int("to", int(newNode)),
					trace.Num("gain", oldCost-newCost))
			}
		}
	}
	sp.End(trace.Int("evaluated", plan.ServicesEvaluated),
		trace.Int("moves", len(plan.Moves)), trace.Int("unmovable", plan.Unmovable))
	return plan, nil
}
