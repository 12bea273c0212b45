// Package adapt is the SBON's runtime adaptation layer: the bridge
// between the control plane (optimizer.Reoptimizer planning service
// moves over the cost space, optimizer.Deployment accounting load) and
// the data plane (stream.Engine executing circuits and migrating
// operators under live traffic).
//
// One Coordinator.Round is the paper's continuous-optimization unit
// made operational:
//
//	repair  — HandleFailures re-places every service stranded on a node
//	          the failure detector confirmed dead (skipped without a
//	          detector).
//	sweep   — Reoptimizer.PlanIncremental consumes the environment's
//	          delta log and re-plans only the circuits the delta can
//	          affect (the first round re-plans everything), producing a
//	          typed MigrationPlan without touching anything; the
//	          coordinator selects the moves to run (Select, or the
//	          highest-gain moves within Budget).
//	migrate — each selected move opens a two-phase Deployment ticket
//	          (load charged on both hosts — the cost space repels
//	          further placements from nodes absorbing a handoff) and
//	          starts the engine's buffered handoff for circuits that
//	          are executing; without an engine the moves commit
//	          instantly.
//	settle  — the coordinator sleeps the clock past every migration's
//	          scheduled completion (a cancellable SleepOrDone), then
//	          commits the tickets, returning load accounting to its
//	          single-host fixed point.
//
// Shared service instances (multi-query reuse) migrate through their
// owning circuit only: the re-optimizer never proposes a move of a
// Reused service, Deployment.BeginMigration rejects one defensively,
// and when the owner's move commits, the instance re-binds for every
// consumer circuit while the engine flips all subscribers' routes at
// cutover.
//
// Run paces rounds on the clock: the paper's continuous optimization
// running at the cost of what changed, not of what is deployed.
//
// On the engine's clock the whole loop is deterministic: same seed, same
// plan, same handoff timings, same settled state.
package adapt

import (
	"errors"
	"sort"
	"time"

	"github.com/hourglass/sbon/internal/failure"
	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/stream"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/trace"
)

// Coordinator drives sweep→migrate→settle loops over a deployment and
// (optionally) the engine executing its circuits.
type Coordinator struct {
	Dep *optimizer.Deployment
	// Engine executes the deployment's circuits; nil means control-plane
	// only (moves commit instantly, nothing buffers or drains).
	Engine *stream.Engine
	// Clock paces settle waits: the engine's clock when there is an
	// engine. A control-plane-only coordinator may leave it nil and gets
	// a private clock, which only its own waits advance.
	Clock *simtime.VirtualClock

	// Threshold is the re-optimizer's hysteresis (default 0.05).
	Threshold float64
	// Budget caps migrations per sweep, highest predicted gain first
	// (0 = unbounded). Bounding the per-sweep budget is what spreads a
	// large adaptation over several sweeps instead of thrashing the
	// overlay in one.
	Budget int
	// Select, when set, replaces the Budget rule: it picks the moves a
	// sweep executes from the re-optimizer's plan (never an evacuation's).
	Select func(optimizer.MigrationPlan) optimizer.MigrationPlan
	// Exclude bars nodes from being chosen as migration targets
	// (departed or draining hosts).
	Exclude map[topology.NodeID]bool
	// TicketTTL, when positive, stamps every migration ticket with a
	// deadline that far past Begin. A handoff still pending at commit
	// time past its deadline — a host died mid-flight, or a teardown
	// stalled — is failed over instead of committed blind: the engine
	// restores a consistent route (AbortForFailure) and the ticket
	// commits or aborts to match where the operator actually ended up.
	TicketTTL time.Duration

	// Mapper and Model override the re-optimizer's components (defaults
	// as in optimizer.Reoptimizer).
	Mapper placement.Mapper
	Model  optimizer.LatencyModel

	// Tracer, when non-nil, records the adaptation loop's spans — one
	// per Round, with the repair (per-circuit outcomes), migrate and
	// settle spans it triggers nested inside — and is handed to the
	// re-optimizer for its per-move decision records.
	Tracer *trace.Tracer

	// ro is the coordinator's persistent re-optimizer: incremental
	// sweeps carry an epoch watermark and a pending-move set across
	// rounds, so the same instance must serve every sweep.
	ro *optimizer.Reoptimizer

	// dead is the cumulative confirmed-dead set. Repair plans over all
	// of it, not just the newest deaths, so a move aborted in one round
	// (its target died undetected, say) is retried in the next instead
	// of stranding the service on the corpse. A Recovered event clears
	// the node. retryRepair marks that the last round left strands.
	dead        map[topology.NodeID]bool
	retryRepair bool

	// rounds counts the coordinator's rounds over its whole life;
	// roundSpan is the open "round" span while Round runs, so the spans
	// it triggers nest under it. Only the loop's own goroutine touches
	// them, so they need no synchronization.
	rounds    int
	roundSpan trace.Span
}

// beginSpan opens a span nested under the current round (when one is
// open) or at the root otherwise.
func (co *Coordinator) beginSpan(cat, name string, args ...trace.Arg) trace.Span {
	if co.roundSpan.Active() {
		return co.roundSpan.Child(cat, name, args...)
	}
	return co.Tracer.Begin(cat, name, args...)
}

// SweepStats reports one sweep→migrate→settle pass (a sweep or an
// evacuation).
type SweepStats struct {
	ServicesEvaluated int
	// Planned is the number of moves the sweep selected (post-selection);
	// Migrated of those reached Commit. DataPlane counts moves that ran
	// the engine's live handoff (the rest were control-plane only).
	Planned   int
	Migrated  int
	DataPlane int
	Aborted   int
	// Unmovable counts pinned services stuck on victim nodes
	// (evacuations only).
	Unmovable int
	// PredictedGain sums the model-estimated service-cost improvement of
	// committed moves; UsageGain sums their incident network-usage part.
	PredictedGain float64
	UsageGain     float64
	// Buffered and Forwarded aggregate the data-plane handoff counters.
	Buffered  int
	Forwarded int
	// SettleDuration is clock time from the first migration start until
	// every handoff completed and committed.
	SettleDuration time.Duration
	// Cancelled reports that the settle wait was cut short by the
	// cancel channel; tickets are still committed so the control plane
	// matches the handoffs already in flight.
	Cancelled bool
	// DirtyNodes, AffectedCircuits, and FullSweep carry the incremental
	// planner's statistics (SweepIncremental only): how large the
	// consumed delta was, how many circuits it forced back through
	// planning, and whether the round degenerated to a full sweep.
	DirtyNodes       int
	AffectedCircuits int
	FullSweep        bool
}

// reopt returns the coordinator's re-optimizer, refreshed with the
// current configuration. The instance persists across sweeps: it holds
// the incremental bookkeeping (delta-log watermark, pending moves).
func (co *Coordinator) reopt() *optimizer.Reoptimizer {
	if co.ro == nil {
		co.ro = optimizer.NewReoptimizer(co.Dep)
	}
	co.ro.Mapper = co.Mapper
	co.ro.Model = co.Model
	co.ro.ImprovementThreshold = co.Threshold
	co.ro.Tracer = co.Tracer
	// Confirmed-dead nodes stay excluded even when the caller swaps in a
	// fresh Exclude set between rounds (the facade does this per call).
	if len(co.dead) > 0 {
		if co.Exclude == nil {
			co.Exclude = make(map[topology.NodeID]bool, len(co.dead))
		}
		for n := range co.dead {
			co.Exclude[n] = true
		}
	}
	co.ro.Exclude = co.Exclude
	return co.ro
}

func (co *Coordinator) clock() *simtime.VirtualClock {
	if co.Clock == nil {
		co.Clock = simtime.NewVirtual()
	}
	return co.Clock
}

// SweepIncremental runs one incremental sweep→migrate→settle round:
// the re-optimizer consumes the environment's delta log and re-plans
// only the circuits the delta can affect (optimizer.PlanIncremental),
// producing the same moves a full re-plan would. The first round, and
// any round whose delta is too large to track, degenerates to a full
// sweep. cancel (optional) aborts the settle wait early.
func (co *Coordinator) SweepIncremental(cancel <-chan struct{}) (SweepStats, error) {
	plan, ist, err := co.reopt().PlanIncremental()
	if err != nil {
		return SweepStats{}, err
	}
	stats, err := co.execute(co.selected(plan), cancel)
	stats.DirtyNodes = ist.DirtyNodes
	stats.AffectedCircuits = ist.AffectedCircuits
	stats.FullSweep = ist.FullSweep
	return stats, err
}

// RoundStats reports one adaptation round: the detector verdicts it
// consumed (none without a detector), the repair they triggered and the
// incremental sweep that followed. At is the clock time the round
// started, which is also when repaired routes flipped (repair is
// synchronous under the virtual clock).
type RoundStats struct {
	At     time.Time
	Events []failure.Event
	Repair RepairStats
	Sweep  SweepStats
}

// Round runs one adaptation round, the body of every adaptation loop:
// HandleFailures on the detector's verdicts (skipped when det is nil),
// then one SweepIncremental, every span they open nested under one
// "round" span. cancel (optional) aborts the settle wait.
func (co *Coordinator) Round(det *failure.Detector, cancel <-chan struct{}) (RoundStats, error) {
	co.rounds++
	rs := RoundStats{At: co.clock().Now()}
	co.roundSpan = co.Tracer.Begin("adapt", "round", trace.Int("n", co.rounds))
	defer func() { co.roundSpan = trace.Span{} }()
	var err error
	if det != nil {
		rs.Events = det.TakeEvents()
		rs.Repair, err = co.HandleFailures(rs.Events, cancel)
	}
	if err == nil {
		rs.Sweep, err = co.SweepIncremental(cancel)
	}
	if err != nil {
		co.roundSpan.End(trace.Str("error", err.Error()))
		return rs, err
	}
	co.roundSpan.End(trace.Int("migrated", rs.Sweep.Migrated), trace.Int("evaluated", rs.Sweep.ServicesEvaluated))
	return rs, nil
}

// RunStats aggregates a continuous adaptation run.
type RunStats struct {
	// Sweeps counts completed rounds; FullSweeps of those degenerated
	// to a full re-plan.
	Sweeps     int
	FullSweeps int
	// Migrated, ServicesEvaluated, PredictedGain, and UsageGain sum the
	// per-round statistics; Last is the final round's.
	Migrated          int
	ServicesEvaluated int
	PredictedGain     float64
	UsageGain         float64
	Last              SweepStats
	// Repair sums the rounds' failure repairs (zero without a detector).
	Repair RepairStats
}

// Run drives continuous adaptation: every interval the coordinator runs
// one Round — repair off det's verdicts (det may be nil), then one
// incremental sweep→migrate→settle — until stop fires (during a wait or
// a settle). This is the paper's "continuous optimization" made
// operational at delta cost: a quiet overlay re-plans nothing.
//
// The wait is a SleepOrDone on the clock, so stop is seen at once when an
// event closes it, and the loop is deterministic: same seed, same delta
// and crash schedule, same rounds, same moves.
func (co *Coordinator) Run(det *failure.Detector, interval time.Duration, stop <-chan struct{}) (RunStats, error) {
	if interval <= 0 {
		interval = time.Second
	}
	var rs RunStats
	for !co.clock().SleepOrDone(interval, stop) {
		r, err := co.Round(det, stop)
		rs.Repair.Add(r.Repair)
		if err != nil {
			return rs, err
		}
		st := r.Sweep
		rs.Sweeps++
		if st.FullSweep {
			rs.FullSweeps++
		}
		rs.Migrated += st.Migrated
		rs.ServicesEvaluated += st.ServicesEvaluated
		rs.PredictedGain += st.PredictedGain
		rs.UsageGain += st.UsageGain
		rs.Last = st
		if st.Cancelled {
			break
		}
	}
	return rs, nil
}

// Evacuate force-migrates every unpinned service off the victim nodes —
// the graceful-drain step that precedes killing them — and settles. The
// victims are excluded as targets for this and any later sweep only if
// the caller also adds them to Exclude.
func (co *Coordinator) Evacuate(victims []topology.NodeID, cancel <-chan struct{}) (SweepStats, error) {
	vs := make(map[topology.NodeID]bool, len(victims))
	for _, n := range victims {
		vs[n] = true
	}
	plan, err := co.reopt().PlanEvacuation(vs)
	if err != nil {
		return SweepStats{}, err
	}
	// Never select from an evacuation: a truncated drain would leave
	// services on a node the caller is about to kill.
	return co.execute(plan, cancel)
}

// selected picks the moves a sweep executes: Select's choice when set,
// else the Budget highest-predicted-gain moves.
func (co *Coordinator) selected(plan optimizer.MigrationPlan) optimizer.MigrationPlan {
	if co.Select != nil {
		return co.Select(plan)
	}
	if co.Budget > 0 && len(plan.Moves) > co.Budget {
		moves := append([]optimizer.Migration(nil), plan.Moves...)
		sort.SliceStable(moves, func(i, j int) bool {
			return moves[i].PredictedGain > moves[j].PredictedGain
		})
		plan.Moves = moves[:co.Budget]
	}
	return plan
}

// execute walks a migration plan through the two-phase protocol: Begin
// every ticket (double-charging in-flight load), start the data-plane
// handoffs, settle, Commit.
func (co *Coordinator) execute(plan optimizer.MigrationPlan, cancel <-chan struct{}) (SweepStats, error) {
	stats := SweepStats{
		ServicesEvaluated: plan.ServicesEvaluated,
		Unmovable:         plan.Unmovable,
	}
	moves := plan.Moves
	stats.Planned = len(moves)
	if len(moves) == 0 {
		return stats, nil
	}

	sp := co.beginSpan("adapt", "migrate", trace.Int("planned", len(moves)))
	clk := co.clock()
	start := clk.Now()
	type inflight struct {
		ticket *optimizer.MigrationTicket
		mig    *stream.Migration
		gain   float64
		usage  float64
	}
	var flights []inflight
	var settleUntil time.Time
	for _, m := range moves {
		ticket, err := co.Dep.BeginMigration(m)
		if err != nil {
			// The plan was computed against current state; Begin can
			// only fail if the deployment changed underneath us.
			stats.Aborted++
			continue
		}
		if co.TicketTTL > 0 {
			ticket.Deadline = clk.Now().Add(co.TicketTTL)
		}
		fl := inflight{ticket: ticket, gain: m.PredictedGain, usage: m.UsageGain}
		if co.Engine != nil {
			mig, err := co.Engine.MigrateUnder(sp, m.Query, m.Service, m.To)
			switch {
			case err == nil:
				fl.mig = mig
				if mig.ScheduledEnd.After(settleUntil) {
					settleUntil = mig.ScheduledEnd
				}
			case errors.Is(err, stream.ErrNotRunning):
				// Control-plane-only circuit: nothing to hand off.
			default:
				_ = ticket.Abort()
				stats.Aborted++
				continue
			}
		}
		flights = append(flights, fl)
	}

	// Settle: sleep the clock strictly past the last scheduled handoff
	// end — the extra nanosecond matters: the virtual clock breaks
	// equal-timestamp ties FIFO, and the settle wake (scheduled now) has
	// a lower sequence number than teardown timers scheduled at cutover,
	// so a wake at exactly ScheduledEnd would fire before them. The wait
	// is cancellable (SleepOrDone) for shutdown paths.
	if !settleUntil.IsZero() {
		wait := settleUntil.Sub(clk.Now()) + time.Nanosecond
		if wait > 0 {
			ssp := sp.Child("adapt", "settle", trace.Dur("wait_ms", wait))
			stats.Cancelled = clk.SleepOrDone(wait, cancel)
			if stats.Cancelled {
				ssp.End(trace.Str("outcome", "cancelled"))
			} else {
				ssp.End()
			}
		}
	}

	for _, fl := range flights {
		if fl.mig != nil {
			// Counters are written by the handoff's timer callbacks and
			// published by closing Done; read them only after observing
			// the close (the happens-before edge). A handoff still
			// pending here — the settle was cancelled — completes on its
			// own: commit the ticket so the control plane matches where
			// the data plane is headed, without touching its in-flight
			// counters.
			select {
			case <-fl.mig.Done():
				stats.Buffered += fl.mig.Buffered
				stats.Forwarded += fl.mig.Forwarded
				if fl.mig.Aborted {
					_ = fl.ticket.Abort()
					stats.Aborted++
					continue
				}
			default:
				// A handoff still pending past its ticket deadline has
				// lost a host or stalled: fail it over now rather than
				// committing blind. AbortForFailure reports whether the
				// operator reached the target, which decides the ticket.
				if fl.ticket.Expired(clk.Now()) {
					if !fl.mig.AbortForFailure() {
						stats.Buffered += fl.mig.Buffered
						_ = fl.ticket.Abort()
						stats.Aborted++
						continue
					}
				}
			}
			stats.DataPlane++
		}
		if err := fl.ticket.Commit(); err != nil {
			stats.Aborted++
			continue
		}
		stats.Migrated++
		stats.PredictedGain += fl.gain
		stats.UsageGain += fl.usage
	}
	stats.SettleDuration = clk.Since(start)
	sp.End(trace.Int("migrated", stats.Migrated), trace.Int("aborted", stats.Aborted),
		trace.Int("data_plane", stats.DataPlane), trace.Num("gain", stats.PredictedGain))
	return stats, nil
}
