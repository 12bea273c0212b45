package exp

import (
	"time"

	"github.com/hourglass/sbon/internal/optimizer"
	"github.com/hourglass/sbon/internal/scenario"
	"github.com/hourglass/sbon/internal/stream"
)

// X11Params configures the large-scale virtual-time scenario.
type X11Params struct {
	Seed int64
	// StubNodes is the per-stub-domain node count; the default 21 gives
	// a 1024-node transit-stub topology.
	StubNodes int
	// Streams is the published stream population.
	Streams int
	// Queries is the number of concurrently executing circuits.
	Queries int
	// SimSeconds is the measurement window in simulated seconds.
	SimSeconds float64
	// WarmupSimSeconds runs the data plane before measurement starts so
	// join windows fill (default 5).
	WarmupSimSeconds float64
	// HeartbeatEvery is the per-node liveness ping period in simulated
	// milliseconds of clock time (0 disables heartbeats).
	HeartbeatEvery time.Duration
	// TupleSizeKB sets the producer tuple size; larger tuples mean
	// fewer events for the same data rates.
	TupleSizeKB float64
}

// DefaultX11Params returns the full-scale configuration: 1024 overlay
// nodes and 200 concurrent queries.
func DefaultX11Params() X11Params {
	return X11Params{
		Seed:             19,
		StubNodes:        21,
		Streams:          16,
		Queries:          200,
		SimSeconds:       3,
		WarmupSimSeconds: 5,
		HeartbeatEvery:   500 * time.Millisecond,
		TupleSizeKB:      4,
	}
}

// X11 is the thousand-node virtual-time scenario: a ≥1000-node overlay
// executes ≥200 optimized circuits simultaneously on the discrete-event
// engine, with background heartbeat traffic, and the aggregate measured
// data plane is validated against the analytic model. The entire run —
// hundreds of simulated circuit-seconds, hundreds of thousands of
// delivery events — completes in seconds of wall time and is
// bit-reproducible for a fixed seed.
func X11(p X11Params) (*Table, error) {
	d := DefaultX11Params()
	orDefault(&p.StubNodes, d.StubNodes)
	orDefault(&p.Streams, d.Streams)
	orDefault(&p.Queries, d.Queries)
	orDefault(&p.SimSeconds, d.SimSeconds)
	orDefault(&p.WarmupSimSeconds, d.WarmupSimSeconds)
	orDefault(&p.TupleSizeKB, d.TupleSizeKB)
	wallStart := time.Now()

	w, err := scenario.Build(scenario.Spec{
		Seed:     p.Seed,
		Topology: stubTopology(p.StubNodes),
		Streams:  streamsOf(p.Streams),
		// Relays, filters, and 2-way joins: the aggregate ratio is a
		// meaningful validation signal at scale (deeper trees are mostly
		// window-fill transient over short windows).
		Queries: queriesOf(p.Queries, 1, 2),
		UseDHT:  true,
		Engine:  expEngine(p.TupleSizeKB),
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	topo := w.Topo

	// Optimize the whole population concurrently over one frozen
	// snapshot, then execute every circuit at once under virtual time.
	results, err := optimizer.OptimizeBatch(w.Env, w.Queries, optimizer.BatchOptions{})
	if err != nil {
		return nil, err
	}
	if err := w.StartDataPlane(); err != nil {
		return nil, err
	}
	if err := w.Execute(circuitsOf(results)...); err != nil {
		return nil, err
	}
	truth := optimizer.TrueLatency{Topo: topo}
	var analyticUsage, analyticRate float64
	for i := range results {
		analyticUsage += results[i].Circuit.NetworkUsage(truth)
		analyticRate += results[i].Circuit.Plan.OutRate
	}
	if p.HeartbeatEvery > 0 {
		w.StartHeartbeats(p.HeartbeatEvery)
	}

	// Warm up (join windows fill), snapshot, run the measurement window,
	// and report steady-state deltas.
	runs := w.Runs
	w.SimSleep(p.WarmupSimSeconds)
	before := make([]stream.Measurement, len(runs))
	for i, run := range runs {
		before[i] = run.Measure()
	}
	w.SimSleep(p.SimSeconds)

	var measuredUsage, measuredRate float64
	tuples := 0
	for i, run := range runs {
		m0, m1 := before[i], run.Measure()
		dt := m1.SimSeconds - m0.SimSeconds
		measuredUsage += (m1.NetworkUsage*m1.SimSeconds - m0.NetworkUsage*m0.SimSeconds) / dt
		measuredRate += (m1.OutRateKBs*m1.SimSeconds - m0.OutRateKBs*m0.SimSeconds) / dt
		tuples += m1.TuplesOut - m0.TuplesOut
	}
	msgs := w.Net.Metrics.Counter("msgs.sent").Value()
	beats := w.Net.Metrics.Counter("hb.recv").Value()
	wall := time.Since(wallStart)

	t := NewTable("X11 — thousand-node scenario under virtual time",
		"nodes", "circuits", "sim seconds", "tuples", "messages", "heartbeats",
		"rate ratio", "usage ratio", "wall ms")
	t.AddRow(topo.NumNodes(), len(runs), p.SimSeconds, tuples, int(msgs), int(beats),
		measuredRate/analyticRate, measuredUsage/analyticUsage,
		float64(wall.Microseconds())/1000)
	t.AddNote("aggregate analytic usage %.0f vs measured %.0f KB·ms/s over %d concurrent circuits",
		analyticUsage, measuredUsage, len(runs))
	t.AddNote("expected shape: rate/usage ratios ≈ 1 (joins add noise); wall time orders of magnitude below the %v of simulated circuit-time executed",
		time.Duration(float64(len(runs))*p.SimSeconds*float64(time.Second)))
	return t, nil
}
