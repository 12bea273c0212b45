package vivaldi

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
)

// Ticker maintains a Vivaldi embedding as a background process on a
// clock: every interval it runs one gossip round (each node samples
// random peers), the way a deployed overlay continuously refreshes its
// coordinates rather than batch-embedding them. Rounds are events on
// the virtual clock (package simtime) — a
// thousand simulated update rounds cost only their compute time, and a
// fixed seed reproduces the coordinate trajectory exactly.
type Ticker struct {
	mu      sync.Mutex
	cfg     Config
	state   []float64 // per node: Dims coordinates, then the error estimate
	lat     LatencyFunc
	samples int
	rng     *rand.Rand

	clock    *simtime.VirtualClock
	interval time.Duration
	timer    *simtime.Event
	running  bool
	rounds   int
}

// NewTicker builds a stopped ticker over n nodes whose pairwise
// latencies come from lat. Call Start to begin rounds on the clock,
// which must not be nil.
func NewTicker(n int, lat LatencyFunc, cfg Config, samplesPerRound int, interval time.Duration, clock *simtime.VirtualClock, rng *rand.Rand) (*Ticker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("vivaldi: need at least 2 nodes, got %d", n)
	}
	if samplesPerRound < 1 {
		return nil, fmt.Errorf("vivaldi: samplesPerRound must be >= 1")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("vivaldi: interval %v, need > 0", interval)
	}
	if clock == nil {
		return nil, fmt.Errorf("vivaldi: ticker needs a clock")
	}
	return &Ticker{
		cfg:      cfg,
		state:    newState(n, cfg),
		lat:      lat,
		samples:  samplesPerRound,
		rng:      rng,
		clock:    clock,
		interval: interval,
	}, nil
}

// Start schedules the first round one interval from now. Restarting a
// stopped ticker resumes from the current coordinates.
func (t *Ticker) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return
	}
	t.running = true
	t.timer = t.clock.AfterFunc(t.interval, t.tick)
}

// tick runs one round and reschedules itself.
func (t *Ticker) tick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return
	}
	runRound(t.state, &t.cfg, t.lat, t.samples, t.rng)
	t.rounds++
	t.timer = t.clock.AfterFunc(t.interval, t.tick)
}

// Stop cancels future rounds. The embedding remains readable.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return
	}
	t.running = false
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Rounds returns the number of completed gossip rounds.
func (t *Ticker) Rounds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rounds
}

// Embedding snapshots the current coordinates and error estimates into
// storage of the caller's own: one array holds every coordinate, so a
// snapshot costs the same handful of allocations at any network size.
func (t *Ticker) Embedding() *Embedding {
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapshot(t.state, t.cfg.Dims)
}
