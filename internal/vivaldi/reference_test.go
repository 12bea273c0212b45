package vivaldi

import "math"

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
