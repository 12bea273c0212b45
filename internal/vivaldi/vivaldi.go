// Package vivaldi implements the Vivaldi decentralized network-coordinate
// algorithm (Dabek et al., SIGCOMM 2004), which the paper cites as the
// substrate for the vector (latency) dimensions of a cost space.
//
// Each node maintains a d-dimensional Euclidean coordinate and a local
// error estimate. On observing an RTT sample to a peer, the node nudges its
// coordinate along the error gradient with an adaptive timestep weighted by
// the relative confidence of the two nodes. Over many samples the pairwise
// coordinate distances approximate pairwise latencies.
//
// The one substitution for the paper's setting: deployed nodes would
// measure round-trip times to their peers on a live network, and here
// every sample is read from the simulated topology's shortest-path
// latencies — by Embed in one batch, by Ticker round after round on a
// clock. Where a sample comes from changes; what the algorithm does
// with it does not.
package vivaldi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Coord is a point in the d-dimensional Euclidean coordinate space.
type Coord []float64

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Distance returns the Euclidean distance between c and o. It panics if
// the dimensionalities differ.
func (c Coord) Distance(o Coord) float64 {
	if len(c) != len(o) {
		panic(fmt.Sprintf("vivaldi: dimension mismatch %d vs %d", len(c), len(o)))
	}
	var ss float64
	for i := range c {
		d := c[i] - o[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// Add returns c + o as a new Coord.
func (c Coord) Add(o Coord) Coord {
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// Scale returns c * f as a new Coord.
func (c Coord) Scale(f float64) Coord {
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] * f
	}
	return out
}

// Norm returns the Euclidean norm of c.
func (c Coord) Norm() float64 {
	var ss float64
	for _, v := range c {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// Config holds the Vivaldi tuning constants.
type Config struct {
	// Dims is the coordinate dimensionality (the paper's latency cost
	// spaces use 2).
	Dims int
	// CE is the error-estimate smoothing constant (paper value 0.25).
	CE float64
	// CC is the coordinate timestep constant (paper value 0.25).
	CC float64
	// InitialError is the starting local error estimate (1.0 = no
	// confidence).
	InitialError float64
	// MinError floors the local error estimate so updates never stall
	// completely.
	MinError float64
}

// DefaultConfig returns the constants from the Vivaldi paper with 2
// dimensions.
func DefaultConfig() Config {
	return Config{Dims: 2, CE: 0.25, CC: 0.25, InitialError: 1.0, MinError: 0.01}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Dims < 1:
		return fmt.Errorf("vivaldi: Dims = %d, need >= 1", c.Dims)
	case c.CE <= 0 || c.CE > 1:
		return fmt.Errorf("vivaldi: CE = %v, need in (0,1]", c.CE)
	case c.CC <= 0 || c.CC > 1:
		return fmt.Errorf("vivaldi: CC = %v, need in (0,1]", c.CC)
	case c.InitialError <= 0:
		return fmt.Errorf("vivaldi: InitialError = %v, need > 0", c.InitialError)
	case c.MinError <= 0 || c.MinError > c.InitialError:
		return fmt.Errorf("vivaldi: MinError = %v, need in (0, InitialError]", c.MinError)
	}
	return nil
}

// update folds one RTT observation (milliseconds) against peer into
// self, following the Vivaldi update rule. Each is one node's packed
// state: its Dims coordinates, then its local error estimate. rng breaks
// ties when the two sit at identical coordinates.
func (c *Config) update(self, peer []float64, rtt float64, rng *rand.Rand) {
	if rtt <= 0 {
		return // measurement noise; a zero RTT carries no usable signal
	}
	coord, err := self[:c.Dims], self[c.Dims]
	dist := Coord(coord).Distance(peer[:c.Dims])

	// Confidence weight: how much of the blame for the error is ours.
	w := err / (err + math.Max(peer[c.Dims], c.MinError))

	// Relative error of this sample.
	es := math.Abs(dist-rtt) / rtt

	// Exponentially smoothed local error.
	alpha := c.CE * w
	self[c.Dims] = max(es*alpha+err*(1-alpha), c.MinError)

	// Move along the unit vector away from (or toward) the peer, in
	// place. Each product is converted explicitly so that no compiler
	// fuses it into the add: every component rounds as it would with the
	// direction, its scaled step and the sum built one after another.
	step := c.CC * w * (rtt - dist)
	if dist > 1e-9 {
		inv := 1 / dist
		for i := range coord {
			coord[i] += float64(float64((coord[i]-peer[i])*inv) * step)
		}
		return
	}
	// The two coincide: push off in a random direction, drawn on the
	// stack unless the space has more than eight dimensions.
	var buf [8]float64
	dir := buf[:]
	if c.Dims > len(buf) {
		dir = make([]float64, c.Dims)
	}
	dir = dir[:c.Dims]
	var norm float64
	for norm < 1e-9 {
		for i := range dir {
			dir[i] = rng.NormFloat64()
		}
		norm = Coord(dir).Norm()
	}
	inv := 1 / norm
	for i := range coord {
		coord[i] += float64(float64(dir[i]*inv) * step)
	}
}

// LatencyFunc supplies the true RTT in milliseconds between two node
// indices; Embed uses it as the measurement oracle.
type LatencyFunc func(i, j int) float64

// Embedding is the result of running Vivaldi over a set of nodes.
type Embedding struct {
	Coords []Coord
	Errors []float64
}

// Embed runs rounds of Vivaldi over n nodes whose pairwise latencies come
// from lat. In each round every node samples `samplesPerRound` random
// peers (the gossip pattern of a deployed system). The rng drives both
// peer selection and tie-breaking.
func Embed(n int, lat LatencyFunc, cfg Config, rounds, samplesPerRound int, rng *rand.Rand) (*Embedding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("vivaldi: need at least 2 nodes, got %d", n)
	}
	if rounds < 1 || samplesPerRound < 1 {
		return nil, fmt.Errorf("vivaldi: rounds and samplesPerRound must be >= 1")
	}
	state := newState(n, cfg)
	for r := 0; r < rounds; r++ {
		runRound(state, &cfg, lat, samplesPerRound, rng)
	}
	return snapshot(state, cfg.Dims), nil
}

// newState returns the packed state of n nodes at the origin with the
// initial error estimate: per node its Dims coordinates, then its error.
func newState(n int, cfg Config) []float64 {
	state := make([]float64, n*(cfg.Dims+1))
	for i := cfg.Dims; i < len(state); i += cfg.Dims + 1 {
		state[i] = cfg.InitialError
	}
	return state
}

// runRound performs one gossip round over the packed state: every node
// samples samplesPerRound random peers and folds in the observed RTTs.
func runRound(state []float64, cfg *Config, lat LatencyFunc, samplesPerRound int, rng *rand.Rand) {
	stride := cfg.Dims + 1
	n := len(state) / stride
	for i := 0; i < n; i++ {
		self := state[i*stride : (i+1)*stride]
		for s := 0; s < samplesPerRound; s++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			cfg.update(self, state[j*stride:(j+1)*stride], lat(i, j), rng)
		}
	}
}

// snapshot copies the packed state's coordinates and errors. All the
// coordinates share one backing array; each is capped at its own
// length, so appending to one can never overwrite the next.
func snapshot(state []float64, d int) *Embedding {
	n := len(state) / (d + 1)
	flat := make([]float64, n*d)
	emb := &Embedding{
		Coords: make([]Coord, n),
		Errors: make([]float64, n),
	}
	for i := range emb.Coords {
		c := Coord(flat[i*d : (i+1)*d : (i+1)*d])
		copy(c, state[i*(d+1):])
		emb.Coords[i] = c
		emb.Errors[i] = state[i*(d+1)+d]
	}
	return emb
}

// Quality summarizes how faithfully an embedding reproduces a latency
// oracle over sampled pairs.
type Quality struct {
	MedianRelErr float64 // median |est-true|/true
	P90RelErr    float64 // 90th-percentile relative error
	MeanRelErr   float64
	Pairs        int
}

// Evaluate samples `pairs` random node pairs and compares embedded
// distance against the true latency.
func (e *Embedding) Evaluate(lat LatencyFunc, pairs int, rng *rand.Rand) Quality {
	n := len(e.Coords)
	if n < 2 || pairs < 1 {
		return Quality{}
	}
	errs := make([]float64, 0, pairs)
	var sum float64
	for k := 0; k < pairs; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		truth := lat(i, j)
		if truth <= 0 {
			continue
		}
		est := e.Coords[i].Distance(e.Coords[j])
		re := math.Abs(est-truth) / truth
		errs = append(errs, re)
		sum += re
	}
	if len(errs) == 0 {
		return Quality{}
	}
	slices.Sort(errs)
	q := Quality{
		MedianRelErr: percentile(errs, 0.5),
		P90RelErr:    percentile(errs, 0.9),
		MeanRelErr:   sum / float64(len(errs)),
		Pairs:        len(errs),
	}
	return q
}

// String renders the quality on one line.
func (q Quality) String() string {
	return fmt.Sprintf("rel err median=%.3f p90=%.3f mean=%.3f over %d pairs",
		q.MedianRelErr, q.P90RelErr, q.MeanRelErr, q.Pairs)
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
