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

// Node is one participant's Vivaldi state.
type Node struct {
	cfg   Config
	coord Coord
	err   float64
	rng   *rand.Rand
}

// NewNode creates a node at the origin with the initial error estimate.
// rng is used to break ties when two nodes sit at identical coordinates.
func NewNode(cfg Config, rng *rand.Rand) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Node{
		cfg:   cfg,
		coord: make(Coord, cfg.Dims),
		err:   cfg.InitialError,
		rng:   rng,
	}, nil
}

// Coord returns a copy of the node's current coordinate.
func (n *Node) Coord() Coord { return n.coord.Clone() }

// Error returns the node's current local error estimate.
func (n *Node) Error() float64 { return n.err }

// Update folds one RTT observation (milliseconds) against a peer with the
// given coordinate and error estimate into this node's state, following
// the Vivaldi update rule.
func (n *Node) Update(peer Coord, peerErr, rtt float64) {
	if rtt <= 0 {
		return // measurement noise; a zero RTT carries no usable signal
	}
	dist := n.coord.Distance(peer)

	// Confidence weight: how much of the blame for the error is ours.
	w := n.err / (n.err + math.Max(peerErr, n.cfg.MinError))

	// Relative error of this sample.
	es := math.Abs(dist-rtt) / rtt

	// Exponentially smoothed local error.
	alpha := n.cfg.CE * w
	n.err = es*alpha + n.err*(1-alpha)
	if n.err < n.cfg.MinError {
		n.err = n.cfg.MinError
	}

	// Move along the unit vector away from (or toward) the peer, in
	// place. Each product is converted explicitly so that no compiler
	// fuses it into the add: every component rounds as it would with the
	// direction, its scaled step and the sum built one after another.
	step := n.cfg.CC * w * (rtt - dist)
	if dist > 1e-9 {
		inv := 1 / dist
		for i := range n.coord {
			n.coord[i] += float64(float64((n.coord[i]-peer[i])*inv) * step)
		}
		return
	}
	// The two coincide: push off in a random direction, drawn on the
	// stack unless the space has more than eight dimensions.
	var buf [8]float64
	dir := buf[:]
	if n.cfg.Dims > len(buf) {
		dir = make([]float64, n.cfg.Dims)
	}
	dir = dir[:n.cfg.Dims]
	var norm float64
	for norm < 1e-9 {
		for i := range dir {
			dir[i] = n.rng.NormFloat64()
		}
		norm = Coord(dir).Norm()
	}
	inv := 1 / norm
	for i := range n.coord {
		n.coord[i] += float64(float64(dir[i]*inv) * step)
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
	nodes, err := newNodes(n, cfg, rng)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		runRound(nodes, lat, samplesPerRound, rng)
	}
	return snapshot(nodes), nil
}

// newNodes builds n Vivaldi nodes sharing one rng.
func newNodes(n int, cfg Config, rng *rand.Rand) ([]*Node, error) {
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := NewNode(cfg, rng)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// runRound performs one gossip round: every node samples
// samplesPerRound random peers and folds in the observed RTTs.
func runRound(nodes []*Node, lat LatencyFunc, samplesPerRound int, rng *rand.Rand) {
	n := len(nodes)
	for i := 0; i < n; i++ {
		for s := 0; s < samplesPerRound; s++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			nodes[i].Update(nodes[j].coord, nodes[j].err, lat(i, j))
		}
	}
}

// snapshot copies the nodes' current coordinates and errors. All the
// coordinates share one backing array; each is capped at its own
// length, so appending to one can never overwrite the next.
func snapshot(nodes []*Node) *Embedding {
	d := nodes[0].cfg.Dims
	flat := make([]float64, len(nodes)*d)
	emb := &Embedding{
		Coords: make([]Coord, len(nodes)),
		Errors: make([]float64, len(nodes)),
	}
	for i, nd := range nodes {
		c := Coord(flat[i*d : (i+1)*d : (i+1)*d])
		copy(c, nd.coord)
		emb.Coords[i] = c
		emb.Errors[i] = nd.err
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
	sortFloat64s(errs)
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

// sortFloat64s is an insertion-free wrapper to avoid importing sort in
// multiple spots; it delegates to the stdlib.
func sortFloat64s(v []float64) {
	// Simple shell sort: n is small (sampled pairs), keeps this file
	// self-contained and allocation-free.
	for gap := len(v) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(v); i++ {
			for j := i; j >= gap && v[j] < v[j-gap]; j -= gap {
				v[j], v[j-gap] = v[j-gap], v[j]
			}
		}
	}
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
