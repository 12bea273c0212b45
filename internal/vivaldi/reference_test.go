package vivaldi

import (
	"math"
	"math/rand"
)

// Node is one participant's Vivaldi state, as the package kept it before
// the state was packed into one array: FuzzRoundMatchesReference holds
// runRound to refRunRound over these nodes, and FuzzUpdateMatchesReference
// holds Config.update to refUpdate.
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
// the Vivaldi update rule, in place.
func (n *Node) Update(peer Coord, peerErr, rtt float64) {
	if rtt <= 0 {
		return
	}
	dist := n.coord.Distance(peer)
	w := n.err / (n.err + math.Max(peerErr, n.cfg.MinError))
	es := math.Abs(dist-rtt) / rtt
	alpha := n.cfg.CE * w
	n.err = es*alpha + n.err*(1-alpha)
	if n.err < n.cfg.MinError {
		n.err = n.cfg.MinError
	}
	step := n.cfg.CC * w * (rtt - dist)
	if dist > 1e-9 {
		inv := 1 / dist
		for i := range n.coord {
			n.coord[i] += float64(float64((n.coord[i]-peer[i])*inv) * step)
		}
		return
	}
	dir := make([]float64, n.cfg.Dims)
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

// refRunRound is runRound as it was over one *Node per participant.
func refRunRound(nodes []*Node, lat LatencyFunc, samplesPerRound int, rng *rand.Rand) {
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

// Sub returns c - o as a new Coord. Only the reference update below
// and the arithmetic test use it.
func (c Coord) Sub(o Coord) Coord {
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] - o[i]
	}
	return out
}

// refUpdate is Node.Update as it was before it worked in place: the
// direction, the scaled step and the new coordinate are each a fresh
// Coord. FuzzUpdateMatchesReference holds the in-place update to it,
// bit for bit.
func refUpdate(n *Node, peer Coord, peerErr, rtt float64) {
	if rtt <= 0 {
		return
	}
	dist := n.coord.Distance(peer)
	w := n.err / (n.err + math.Max(peerErr, n.cfg.MinError))
	es := math.Abs(dist-rtt) / rtt
	alpha := n.cfg.CE * w
	n.err = es*alpha + n.err*(1-alpha)
	if n.err < n.cfg.MinError {
		n.err = n.cfg.MinError
	}
	delta := n.cfg.CC * w
	dir := refUnitVectorFrom(n, peer, dist)
	n.coord = n.coord.Add(dir.Scale(delta * (rtt - dist)))
}

// refUnitVectorFrom returns the unit vector pointing from peer toward
// n, choosing a random direction when the two coincide.
func refUnitVectorFrom(n *Node, peer Coord, dist float64) Coord {
	if dist > 1e-9 {
		return n.coord.Sub(peer).Scale(1 / dist)
	}
	dir := make(Coord, n.cfg.Dims)
	var norm float64
	for norm < 1e-9 {
		for i := range dir {
			dir[i] = n.rng.NormFloat64()
		}
		norm = dir.Norm()
	}
	return dir.Scale(1 / norm)
}
