// Package optimizer implements the paper's contribution: integrated query
// plan generation and service placement over a cost space (§3.3), the
// classic two-step optimizer it is compared against (§2.3), multi-query
// optimization with cost-space radius pruning (§3.4), and dynamic
// re-optimization of running circuits.
//
// The Env type is the optimizer's view of the SBON: the topology (ground
// truth for measured costs), every node's Vivaldi coordinate and load
// (combined into its cost-space point), and optionally the Hilbert-keyed
// DHT catalog for decentralized physical mapping.
//
// Env separates the state one optimization *reads* (Snapshot: topology,
// coordinates, loads, cost-space points, catalog) from the state the
// deployment life-cycle *mutates* (background loads, the RNG, the
// republish path). Freeze returns an immutable copy of the read state so
// any number of concurrent optimizations — see OptimizeBatch — can share
// one snapshot without locking.
package optimizer

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/costindex"
	"github.com/hourglass/sbon/internal/costspace"
	"github.com/hourglass/sbon/internal/dht"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// The environment's fixed construction constants. No configuration
// varies them.
const (
	// vivaldiSamples is the number of peers each node samples per
	// embedding round.
	vivaldiSamples = 4
	// loadScale is the squared-load weighting scale β. A node's load
	// coordinate is β·load², in the milliseconds of the latency plane, so
	// the two trade off in one distance: at 100 a fully loaded node reads
	// 100 ms away from an idle one at the same place, and one at the
	// default background ceiling of 0.4 reads 16 ms away. Squared, so
	// light load is nearly free and load near saturation outweighs any
	// latency saving.
	loadScale = 100
	// LoadPerRate is the node load added per KB/s of input processed by
	// a hosted service: a 200 KB/s service adds 0.1 load.
	LoadPerRate = 1.0 / 2000
)

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	// Seed drives Vivaldi embedding and load assignment.
	Seed int64
	// VivaldiRounds is the number of coordinate embedding rounds
	// (default 40).
	VivaldiRounds int
	// MaxBackgroundLoad bounds the uniform background load assigned to
	// each node (default 0.4).
	MaxBackgroundLoad float64
	// UseDHT builds the Chord ring + Hilbert catalog over all nodes.
	UseDHT bool
}

// DefaultEnvConfig returns the configuration used by the experiments.
func DefaultEnvConfig(seed int64) EnvConfig {
	return EnvConfig{
		Seed:              seed,
		VivaldiRounds:     40,
		MaxBackgroundLoad: 0.4,
		UseDHT:            true,
	}
}

// withDefaults fills zero-valued fields with the documented defaults.
func (c EnvConfig) withDefaults() EnvConfig {
	if c.VivaldiRounds <= 0 {
		c.VivaldiRounds = 40
	}
	if c.MaxBackgroundLoad < 0 || c.MaxBackgroundLoad >= 1 {
		c.MaxBackgroundLoad = 0.4
	}
	return c
}

// Snapshot is the read-only cost-space and topology state that a single
// optimization reads: the topology, the statistics catalog, every node's
// vector coordinate, raw load, and combined cost-space point, and the
// optional DHT catalog. An Env owns a live snapshot and updates it in
// place; Env.Freeze deep-copies the mutable arrays into a frozen snapshot
// that concurrent optimizations share without locking.
//
// All methods are safe for concurrent use as long as no Env mutator
// (SetBackgroundLoad, AddServiceLoad, RemoveServiceLoad, SetCoordinates,
// Deploy/Cancel via Deployment) runs on the *owning
// live* Env at the same time — a frozen snapshot's coordinate arrays are
// private copies, but the DHT catalog is shared with the live Env because
// copying the ring is prohibitive and lookups are pure reads.
type Snapshot struct {
	Topo  *topology.Topology
	Stats *query.Catalog

	space *costspace.Space
	vec   []vivaldi.Coord // per-node vector coordinate
	load  []float64       // per-node current raw load (background + services)
	pts   []costspace.Point

	catalog *dht.Catalog // nil unless UseDHT

	// epoch counts mutations of the owning live Env (load changes,
	// re-embeddings). A PlanCache revalidates its entries when it sees
	// a new epoch, so stale circuits are never served.
	epoch uint64

	// nodeIDs is the identity slice 0..n-1, built once at construction
	// and shared by every snapshot — NodeIDs is on the mapping hot path
	// and must not allocate. Callers must not mutate it.
	nodeIDs []topology.NodeID

	// idx caches the cost-space k-NN index over pts, versioned by epoch
	// (the PlanCache invalidation discipline): any mutation of the
	// owning live Env bumps the epoch, marking the index dirty, and the
	// next CostIndex call rebuilds — or patches, for single-point moves
	// — lazily. Frozen snapshots never mutate, so their index, built at
	// most once, is shared lock-free by concurrent optimizations.
	idx atomic.Pointer[costindex.Index]

	cfg EnvConfig
}

// Env is the optimizer's view of one SBON deployment: a live Snapshot
// plus the mutable bookkeeping (background-load components, the RNG) that
// the deployment life-cycle updates.
type Env struct {
	*Snapshot

	base []float64 // background load component
	rng  *rand.Rand
	// points is the block load refreshes carve their points from.
	points []float64

	// dirty is the delta log incremental re-optimization consumes: for
	// every node mutated since the last CompactDirty, the epoch of its
	// latest mutation and its cost-space point as of the last
	// compaction. dirtyFloor is the compaction watermark: entries at or
	// below it have been consumed and dropped.
	dirty      map[topology.NodeID]dirtyRec
	dirtyFloor uint64

	// reshapes counts re-embeddings and statistics changes, which end a
	// PlanCache's generation.
	reshapes uint64

	// frozen marks an Env produced by Freeze: a shared read-only view
	// whose mutators panic instead of corrupting concurrent readers.
	frozen bool

	// EmbeddingQuality records the Vivaldi embedding error measured at
	// construction time.
	EmbeddingQuality vivaldi.Quality
}

// NewEnv builds an environment over the topology: embeds Vivaldi
// coordinates, assigns background loads, constructs the cost space
// (2 latency dims + squared CPU load), and optionally the DHT catalog
// with every node's coordinate published.
func NewEnv(topo *topology.Topology, stats *query.Catalog, cfg EnvConfig) (*Env, error) {
	if topo == nil || topo.NumNodes() < 2 {
		return nil, fmt.Errorf("optimizer: need a topology with >= 2 nodes")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	emb, err := vivaldi.Embed(topo.NumNodes(), topo.PairLatency, vivaldi.DefaultConfig(), cfg.VivaldiRounds, vivaldiSamples, rng)
	if err != nil {
		return nil, fmt.Errorf("optimizer: vivaldi embedding: %w", err)
	}
	return newEnv(topo, stats, cfg, emb.Coords, rng)
}

// NewEnvFromCoords builds an environment from externally maintained
// Vivaldi coordinates (a vivaldi.Ticker's Embedding, the way a deployed
// overlay continuously refreshes coordinates) instead of batch-embedding
// them.
func NewEnvFromCoords(topo *topology.Topology, stats *query.Catalog, cfg EnvConfig, coords []vivaldi.Coord) (*Env, error) {
	if topo == nil || topo.NumNodes() < 2 {
		return nil, fmt.Errorf("optimizer: need a topology with >= 2 nodes")
	}
	if len(coords) != topo.NumNodes() {
		return nil, fmt.Errorf("optimizer: %d coords for %d nodes", len(coords), topo.NumNodes())
	}
	cfg = cfg.withDefaults()
	// The outer slice is copied so later SetCoordinates syncs never alias
	// the caller's snapshot. The Coord vectors are shared: nothing writes
	// a coordinate after it is handed over (a Ticker snapshot copies into
	// an array of its own).
	return newEnv(topo, stats, cfg, append([]vivaldi.Coord(nil), coords...), rand.New(rand.NewSource(cfg.Seed)))
}

// newEnv is both constructors' body once the coordinates are known: it
// evaluates the embedding against 2000 sampled true-latency pairs, then
// draws every node's background load from rng, and, with UseDHT, builds
// the node catalog in the dht frame.
func newEnv(topo *topology.Topology, stats *query.Catalog, cfg EnvConfig, vec []vivaldi.Coord, rng *rand.Rand) (*Env, error) {
	n := len(vec)
	space := costspace.NewLatencyLoadSpace(loadScale)
	e := &Env{
		Snapshot: &Snapshot{
			Topo:    topo,
			Stats:   stats,
			space:   space,
			vec:     vec,
			load:    make([]float64, n),
			pts:     make([]costspace.Point, n),
			nodeIDs: makeNodeIDs(n),
			cfg:     cfg,
		},
		base:  make([]float64, n),
		rng:   rng,
		dirty: make(map[topology.NodeID]dirtyRec),
	}
	e.EmbeddingQuality = (&vivaldi.Embedding{Coords: vec}).Evaluate(topo.PairLatency, 2000, rng)
	for i := 0; i < n; i++ {
		e.base[i] = rng.Float64() * cfg.MaxBackgroundLoad
		e.load[i] = e.base[i]
		e.pts[i] = space.NewPoint(e.vec[i], []float64{e.load[i]})
	}
	if cfg.UseDHT {
		cat, err := dht.NewNodeCatalog(space, e.pts)
		if err != nil {
			return nil, err
		}
		e.catalog = cat
	}
	return e, nil
}

// Freeze returns a read-only copy of the environment for concurrent
// optimization: it shares the immutable topology, statistics, cost space,
// and DHT catalog, but owns private copies of the per-node coordinate and
// load arrays, so later mutations of the live Env never reach readers of
// the frozen one. Mutating methods on a frozen Env panic.
//
// The catalog is shared, not copied: its lookups are pure reads, so a
// frozen Env is race-free provided the live Env is not mutated (deploys,
// load changes, re-embeddings) while optimizations run against the
// snapshot.
func (e *Env) Freeze() *Env {
	s := &Snapshot{
		Topo:    e.Topo,
		Stats:   e.Stats,
		space:   e.space,
		vec:     append([]vivaldi.Coord(nil), e.vec...),
		load:    append([]float64(nil), e.load...),
		pts:     append([]costspace.Point(nil), e.pts...),
		catalog: e.catalog,
		epoch:   e.epoch,
		nodeIDs: e.nodeIDs,
		cfg:     e.cfg,
	}
	// The k-NN index is immutable: when the live one is epoch-current it
	// is shared with the frozen snapshot rather than rebuilt. A patched
	// index is not carried: snapshots serve whole batches, which
	// amortize one clean rebuild better than per-query patch scans.
	if ix := e.idx.Load(); ix != nil && ix.Version() == e.epoch && ix.NumPatched() == 0 {
		s.idx.Store(ix)
	}
	return &Env{
		Snapshot: s,
		// base is left nil: its only readers are mutators, which panic
		// on a frozen Env before touching it.
		rng:              rand.New(rand.NewSource(e.cfg.Seed)),
		frozen:           true,
		EmbeddingQuality: e.EmbeddingQuality,
	}
}

// Frozen reports whether the Env is a read-only snapshot from Freeze.
func (e *Env) Frozen() bool { return e.frozen }

// NoteStatsChanged records a mutation of the statistics catalog (new
// streams, changed selectivities). The catalog changes which plan wins,
// not where nodes sit, so no point refresh is needed — but the epoch must
// advance so plan caches stop serving plans enumerated under the old
// statistics.
func (e *Env) NoteStatsChanged() {
	e.mutable("NoteStatsChanged")
	e.epoch++
	e.reshapes++
	// Statistics move no points: re-stamp the index instead of letting
	// the epoch bump force a rebuild.
	if ix := e.idx.Load(); ix != nil && ix.Version() == e.epoch-1 {
		e.idx.Store(ix.WithVersion(e.epoch))
	}
}

// mutable panics if the Env is a frozen snapshot: snapshots are shared by
// concurrent optimizations, so mutating one is always a bug.
func (e *Env) mutable(op string) {
	if e.frozen {
		panic("optimizer: " + op + " called on a frozen Env snapshot")
	}
}

// Space implements placement.NodeSource.
func (s *Snapshot) Space() *costspace.Space { return s.space }

// NodeIDs returns every node id in ascending order. The slice is built
// once at construction and shared by every snapshot; callers must not
// mutate it.
func (s *Snapshot) NodeIDs() []topology.NodeID { return s.nodeIDs }

func makeNodeIDs(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

// CostIndex implements placement.NodeSource: it returns the exact
// k-NN index over the snapshot's node cost-space points, rebuilding (or
// patching) lazily when the environment was mutated since the index was
// built. On a frozen snapshot the epoch never moves, so the index is
// built at most once and shared lock-free by concurrent optimizations
// (OptimizeBatch workers); on the live Env the epoch-version comparison
// is the dirty flag, exactly like PlanCache invalidation.
func (s *Snapshot) CostIndex() *costindex.Index {
	if ix := s.idx.Load(); ix != nil && ix.Version() == s.epoch {
		return ix
	}
	ix := costindex.Build(s.space, s.pts, s.epoch)
	s.idx.Store(ix)
	return ix
}

// patchIndex keeps an already-built index valid across a single-point
// move without a rebuild. Called by mutators after bumping the epoch;
// when the patch overlay's budget is exhausted the cached index is
// dropped and CostIndex rebuilds on next use.
func (s *Snapshot) patchIndex(n topology.NodeID) {
	ix := s.idx.Load()
	if ix == nil {
		return
	}
	if ix.Version() != s.epoch && ix.Version() != s.epoch-1 {
		// The index was already stale before this mutation; let it
		// rebuild wholesale on next use. (Version == epoch happens when
		// one mutation refreshes several points, e.g. re-embedding.)
		s.idx.Store(nil)
		return
	}
	if next, ok := ix.WithPoint(int32(n), s.pts[n], s.epoch); ok {
		s.idx.Store(next)
	} else {
		s.idx.Store(nil)
	}
}

// Point returns the node's current full cost-space point.
func (s *Snapshot) Point(n topology.NodeID) costspace.Point { return s.pts[n] }

// VecCoord returns the node's vector (latency) coordinate, its current
// Vivaldi coordinate. The caller must not mutate it.
func (s *Snapshot) VecCoord(n topology.NodeID) vivaldi.Coord { return s.vec[n] }

// Load returns the node's current raw load.
func (s *Snapshot) Load(n topology.NodeID) float64 { return s.load[n] }

// Catalog returns the DHT catalog (nil if the env was built without one).
func (s *Snapshot) Catalog() *dht.Catalog { return s.catalog }

// Config returns the construction configuration.
func (s *Snapshot) Config() EnvConfig { return s.cfg }

// Epoch returns the mutation epoch: how many times the owning live Env
// had its state changed (load accounting, background loads,
// re-embedding) when this snapshot's view was taken.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Rand returns the environment's RNG (deterministic per seed).
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetBackgroundLoad replaces the node's background load component and
// refreshes its cost-space point (and DHT entry).
func (e *Env) SetBackgroundLoad(n topology.NodeID, l float64) {
	e.mutable("SetBackgroundLoad")
	e.epoch++
	if l < 0 {
		l = 0
	}
	delta := l - e.base[n]
	e.base[n] = l
	e.load[n] += delta
	e.refreshPoint(n, true)
}

// AddServiceLoad charges a hosted service processing `inputRate` KB/s to
// the node's load.
func (e *Env) AddServiceLoad(n topology.NodeID, inputRate float64) {
	e.mutable("AddServiceLoad")
	e.epoch++
	e.load[n] += inputRate * LoadPerRate
	e.refreshPoint(n, true)
}

// RemoveServiceLoad reverses AddServiceLoad.
func (e *Env) RemoveServiceLoad(n topology.NodeID, inputRate float64) {
	e.mutable("RemoveServiceLoad")
	e.epoch++
	e.load[n] -= inputRate * LoadPerRate
	if e.load[n] < e.base[n] {
		e.load[n] = e.base[n]
	}
	e.refreshPoint(n, true)
}

// refreshPoint rebuilds the node's cost-space point after a mutation.
// loadOnly declares that only the scalar (load) components changed —
// the delta-log tag incremental re-planning uses to skip circuits whose
// incidence on the node is latency-only.
// The point is carved from the Env's point block (see take) and never
// written again; a block stays live while any node's current or
// delta-logged point is in it.
func (e *Env) refreshPoint(n topology.NodeID, loadOnly bool) {
	p := take(&e.points, e.space.Dims())
	if err := e.setPoint(n, e.space.AppendPoint(p[:0], e.vec[n], []float64{e.load[n]}), loadOnly, true); err != nil {
		// The ring always contains every node in this simulator; a
		// publish failure indicates a programming error.
		panic(fmt.Sprintf("optimizer: republish node %d: %v", n, err))
	}
}

// setPoint installs p as the node's cost-space point: it logs the
// mutation, patches the k-NN index and, if asked, republishes,
// returning the catalog's error. p belongs to the Env from then on and
// is never written again.
func (e *Env) setPoint(n topology.NodeID, p costspace.Point, loadOnly, publish bool) error {
	e.markDirty(n, loadOnly)
	e.pts[n] = p
	e.patchIndex(n)
	if publish && e.published(n) {
		// Republish; the catalog replaces the old entry.
		_, err := e.catalog.Publish(n, e.pts[n])
		return err
	}
	return nil
}

// published reports whether the catalog lists the node. The Env
// republishes only such nodes: a node crash repair retired stays out
// of the catalog until Catalog.Rejoin brings it back.
func (e *Env) published(n topology.NodeID) bool {
	if e.catalog == nil {
		return false
	}
	_, ok := e.catalog.PublishedEntry(n)
	return ok
}

// dirtyRec is one delta-log entry: the epoch of the node's latest
// mutation, its point as of the last compaction, and whether every
// mutation since then touched only the load components.
type dirtyRec struct {
	epoch    uint64
	prev     costspace.Point
	loadOnly bool
}

// markDirty records the node in the delta log before its point is
// replaced. The pre-mutation point is captured only on the node's first
// dirtying after a compaction, so an entry's Prev is always the point
// the log's consumer last saw. No clone is needed: setPoint replaces
// pts[n] with another point and no stored point is ever written.
func (e *Env) markDirty(n topology.NodeID, loadOnly bool) {
	if rec, ok := e.dirty[n]; ok {
		rec.epoch = e.epoch
		rec.loadOnly = rec.loadOnly && loadOnly
		e.dirty[n] = rec
		return
	}
	e.dirty[n] = dirtyRec{epoch: e.epoch, prev: e.pts[n], loadOnly: loadOnly}
}

// DirtyNode is one consumed delta-log entry: a node whose load or
// coordinate changed, plus its cost-space point as of the log's last
// compaction — the "before" coordinate incremental re-planning compares
// against.
type DirtyNode struct {
	Node topology.NodeID
	Prev costspace.Point
	// LoadOnly reports that every logged mutation of the node changed
	// only its load (scalar) components: latency coordinates — and with
	// them every link cost the node participates in — are exactly as the
	// log's consumer last saw them.
	LoadOnly bool
}

// DirtySince returns the nodes mutated after epoch since, sorted by
// node id. The caller's since must be at least DirtyCompactedThrough,
// or entries it needs have already been dropped — consumers detect that
// case and fall back to a full sweep.
func (e *Env) DirtySince(since uint64) []DirtyNode {
	var out []DirtyNode
	for n, rec := range e.dirty {
		if rec.epoch > since {
			out = append(out, DirtyNode{Node: n, Prev: rec.prev, LoadOnly: rec.loadOnly})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// CompactDirty drops delta-log entries with mutation epoch <= upTo and
// records upTo as the new compaction floor. The log is single-consumer:
// the compacting sweep declares it has seen all state through upTo, and
// Prev points captured afterwards describe the state as of that sweep.
func (e *Env) CompactDirty(upTo uint64) {
	for n, rec := range e.dirty {
		if rec.epoch <= upTo {
			delete(e.dirty, n)
		}
	}
	if upTo > e.dirtyFloor {
		e.dirtyFloor = upTo
	}
}

// DirtyCompactedThrough returns the delta log's compaction floor: the
// highest epoch a consumer has declared consumed.
func (e *Env) DirtyCompactedThrough() uint64 { return e.dirtyFloor }

// BackgroundLoad returns the node's background load component — the
// floor service-load release clamps to. Frozen snapshots do not carry
// it and report zero.
func (e *Env) BackgroundLoad(n topology.NodeID) float64 {
	if e.base == nil {
		return 0
	}
	return e.base[n]
}

// SetCoordinates refreshes node coordinates in bulk from an external
// embedding maintainer (vivaldi.Ticker), the periodic coordinate sync of
// a continuously running overlay. Only nodes whose coordinate actually
// moved are refreshed and delta-logged, so a near-converged ticker sync
// costs O(moved); when at least a quarter of the overlay moved, the
// cached k-NN index is dropped up front instead of churning its patch
// budget, and the catalog republishes in one pass (RepublishAll). A
// sync ends every PlanCache generation over the Env. Returns the number
// of nodes whose coordinate changed and the catalog's first publish
// error: every moved node's point is installed either way.
//
// The Env keeps each moved node's Coord as given, without copying, and
// carves the moved nodes' points from one slab; the DHT republish copies
// each into the catalog's own entry, so a sync allocates the slab and
// its moved-node list. What a sync retains: a node
// that does not move keeps its point's slab and its coordinate's backing
// array (a whole Ticker snapshot) alive until it next moves.
func (e *Env) SetCoordinates(coords []vivaldi.Coord) (int, error) {
	e.mutable("SetCoordinates")
	if len(coords) != len(e.vec) {
		return 0, fmt.Errorf("optimizer: %d coords for %d nodes", len(coords), len(e.vec))
	}
	changed := make([]topology.NodeID, 0, 16)
	for i := range coords {
		if !coordEqual(e.vec[i], coords[i]) {
			changed = append(changed, topology.NodeID(i))
		}
	}
	if len(changed) == 0 {
		return 0, nil
	}
	e.epoch++
	e.reshapes++
	bulk := len(changed)*4 >= len(e.vec)
	if bulk {
		e.idx.Store(nil)
	}
	slab := make(costspace.Point, 0, len(changed)*e.space.Dims())
	var err error
	for _, n := range changed {
		e.vec[n] = coords[n]
		at := len(slab)
		slab = e.space.AppendPoint(slab, e.vec[n], []float64{e.load[n]})
		err = cmp.Or(err, e.setPoint(n, slab[at:len(slab):len(slab)], false, !bulk))
	}
	if bulk && e.catalog != nil {
		moved := len(changed)
		changed = slices.DeleteFunc(changed, func(n topology.NodeID) bool { return !e.published(n) })
		return moved, e.catalog.RepublishAll(changed, e.pts)
	}
	return len(changed), err
}

func coordEqual(a, b vivaldi.Coord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LatencyModel estimates pairwise latency between overlay nodes. The
// optimizer selects circuits with a model; experiments measure final
// circuits with the true topology model.
type LatencyModel interface {
	Latency(a, b topology.NodeID) float64
	Name() string
}

// TrueLatency reads shortest-path latencies from the topology — the
// simulator's ground truth.
type TrueLatency struct {
	Topo *topology.Topology
}

// Latency implements LatencyModel.
func (t TrueLatency) Latency(a, b topology.NodeID) float64 { return t.Topo.Latency(a, b) }

// Name implements LatencyModel.
func (TrueLatency) Name() string { return "true" }

// CoordLatency estimates latency as the distance between Vivaldi
// coordinates — the only information a decentralized optimizer has.
type CoordLatency struct {
	Env *Env
}

// Latency implements LatencyModel.
func (c CoordLatency) Latency(a, b topology.NodeID) float64 {
	return c.Env.vec[a].Distance(c.Env.vec[b])
}

// Name implements LatencyModel.
func (CoordLatency) Name() string { return "coords" }
