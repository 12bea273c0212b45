package optimizer

import (
	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/topology"
)

// ShadowEnv is a copy-on-write planning view over a live Env: sweeps
// simulate load shifts and service re-bindings against the shadow, so
// the live loads, cost-space points, k-NN index, and DHT catalog are
// never touched while a plan is computed. Reads fall through to the
// live snapshot for untouched state; writes land in private overlay
// maps that die with the shadow — there is nothing to roll back.
//
// The shadow implements placement.NodeSource, so mappers cost candidates
// against the simulated state. It takes a k-NN index only when a mapper
// first asks for one: the live env's (shared, immutable) if no load has
// been shifted yet, and from then on it patches that copy persistently
// per simulated load shift. After shifts, or when the patch overlay's
// budget is exhausted, the shadow materializes its full point set and
// rebuilds privately. A sweep that maps through the DHT never reads an
// index and builds none.
//
// A ShadowEnv is single-goroutine scratch for one sweep. The live Env
// must not be mutated while a shadow over it is in use.
type ShadowEnv struct {
	env   *Env
	loads map[topology.NodeID]float64
	pts   map[topology.NodeID]costspace.Point
	binds map[*PlacedService]topology.NodeID
	idx   *costindex.Index  // nil until first read, and after a patch-budget overflow
	full  []costspace.Point // materialized points for private rebuilds
}

// NewShadow returns a clean shadow over the live environment.
func NewShadow(env *Env) *ShadowEnv {
	return &ShadowEnv{
		env:   env,
		loads: make(map[topology.NodeID]float64),
		pts:   make(map[topology.NodeID]costspace.Point),
		binds: make(map[*PlacedService]topology.NodeID),
	}
}

// Space implements placement.NodeSource.
func (sh *ShadowEnv) Space() *costspace.Space { return sh.env.Space() }

// Point returns the node's simulated point when its load was shifted,
// the live point otherwise.
func (sh *ShadowEnv) Point(n topology.NodeID) costspace.Point {
	if p, ok := sh.pts[n]; ok {
		return p
	}
	return sh.env.Point(n)
}

// Load returns the node's simulated raw load.
func (sh *ShadowEnv) Load(n topology.NodeID) float64 {
	if l, ok := sh.loads[n]; ok {
		return l
	}
	return sh.env.Load(n)
}

// NodeOf resolves a service's host under the shadow: its simulated
// binding when the sweep moved (or re-bound) it, its live node
// otherwise.
func (sh *ShadowEnv) NodeOf(s *PlacedService) topology.NodeID {
	if n, ok := sh.binds[s]; ok {
		return n
	}
	return s.Node
}

// Rebind records a simulated binding for the service.
func (sh *ShadowEnv) Rebind(s *PlacedService, n topology.NodeID) { sh.binds[s] = n }

// ShiftLoad moves a service's load charge between shadow nodes,
// mirroring the live Remove/AddServiceLoad pair an applied move would
// perform (including the background-load release clamp), and refreshes
// both simulated points.
func (sh *ShadowEnv) ShiftLoad(from, to topology.NodeID, inRate float64) {
	sh.setLoad(from, sh.Load(from)-inRate*LoadPerRate)
	sh.setLoad(to, sh.Load(to)+inRate*LoadPerRate)
}

// setLoad writes a simulated load, clamped at the node's background
// component exactly as Env.RemoveServiceLoad clamps, and rebuilds the
// node's simulated point.
func (sh *ShadowEnv) setLoad(n topology.NodeID, l float64) {
	if min := sh.env.BackgroundLoad(n); l < min {
		l = min
	}
	sh.loads[n] = l
	pt := sh.env.Space().NewPoint(sh.env.VecCoord(n), []float64{l})
	sh.pts[n] = pt
	if sh.full != nil {
		sh.full[n] = pt
	}
	if sh.idx != nil {
		if next, ok := sh.idx.WithPoint(int32(n), pt, sh.idx.Version()); ok {
			sh.idx = next
		} else {
			sh.idx = nil // budget exhausted; rebuild privately on demand
		}
	}
}

// CostIndex implements placement.NodeSource over the simulated
// points. The index is exact: patched overlays and private rebuilds
// return identical nearest-neighbor answers by the costindex contract.
func (sh *ShadowEnv) CostIndex() *costindex.Index {
	if sh.idx == nil && len(sh.pts) == 0 {
		sh.idx = sh.env.CostIndex()
	}
	if sh.idx == nil {
		if sh.full == nil {
			sh.full = append([]costspace.Point(nil), sh.env.pts...)
			for n, p := range sh.pts {
				sh.full[n] = p
			}
		}
		sh.idx = costindex.Build(sh.env.Space(), sh.full, 0)
	}
	return sh.idx
}

// shadowIncidentUsage is the usage of the non-shared links touching
// service index i, every endpoint resolved through the shadow's
// simulated bindings.
func shadowIncidentUsage(sh *ShadowEnv, c *Circuit, i int, m LatencyModel) float64 {
	var sum float64
	for _, l := range c.Links {
		if l.Shared {
			continue
		}
		if l.From == i || l.To == i {
			sum += l.Rate * m.Latency(sh.NodeOf(c.Services[l.From]), sh.NodeOf(c.Services[l.To]))
		}
	}
	return sum
}

// shadowServiceCost is the migration criterion, evaluated against the
// shadow: incident link usage under simulated bindings plus a load term
// — the simulated host's weighted scalar components (ms-equivalent, per
// the cost space's weighting functions) scaled by the service's input
// rate, making the two terms dimensionally commensurate (KB·ms/s). This
// is how an overloaded host repels its services even when it is ideal
// in latency terms.
func shadowServiceCost(sh *ShadowEnv, c *Circuit, i int, m LatencyModel) float64 {
	cost := shadowIncidentUsage(sh, c, i, m)
	s := c.Services[i]
	var scalar float64
	for _, comp := range sh.Space().ScalarComponents(sh.Point(sh.NodeOf(s))) {
		scalar += comp
	}
	return cost + s.InRate*scalar
}
