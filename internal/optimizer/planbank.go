package optimizer

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// PlanBank implements the dynamic-plans alternative the paper contrasts
// integration with (§2.3, citing Graefe & Ward [13]): "pre-calculate and
// store plans and sub-plans in the database. At compile time, each plan
// is generated with a different set of network assumptions. Then, when an
// expected query is issued, the optimizer examines current network state
// and tries to find the pre-computed plan that best matches current
// conditions."
//
// Compile optimizes the query under K hypothetical network states
// (deterministically jittered latency models) and stores the distinct
// winning plans. Lookup places only those banked plans against current
// conditions — cheaper than full integration, but "limited in that the
// optimizer must guess which future node and network states are relevant
// and worth pre-calculation": if no banked plan matches reality, the
// result is suboptimal. The integrated optimizer never does worse under
// the same selection model, which is the paper's argument.
//
// A PlanBank serves one goroutine at a time: it keeps one Integrated
// across calls, whose Builder its results are carved from, and
// Optimize re-rates the banked plans in place.
type PlanBank struct {
	Env *Env
	// Placer/Mapper/Model default like Integrated's.
	Placer placement.VirtualPlacer
	Mapper placement.Mapper
	Model  LatencyModel

	banks map[query.QueryID][]*query.PlanNode
	inner *Integrated
}

// NewPlanBank returns an empty bank over the environment.
func NewPlanBank(env *Env) *PlanBank {
	return &PlanBank{Env: env, banks: make(map[query.QueryID][]*query.PlanNode)}
}

// JitteredLatency perturbs a base latency model with deterministic
// per-pair factors in [1-Amount, 1+Amount] — one hypothetical future
// network state per seed.
type JitteredLatency struct {
	Base   LatencyModel
	Seed   uint64
	Amount float64
}

// Latency implements LatencyModel.
func (j JitteredLatency) Latency(a, b topology.NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	binary.LittleEndian.PutUint64(buf[16:], j.Seed)
	h.Write(buf[:])
	// Uniform in [1-Amount, 1+Amount).
	u := float64(h.Sum64()>>11) / float64(1<<53)
	factor := 1 + (2*u-1)*j.Amount
	return j.Base.Latency(a, b) * factor
}

// Name implements LatencyModel.
func (j JitteredLatency) Name() string {
	return fmt.Sprintf("jitter(%s,seed=%d,±%.0f%%)", j.Base.Name(), j.Seed, j.Amount*100)
}

// integrated returns the bank's Integrated with its components, model
// overriding Model when non-nil.
func (pb *PlanBank) integrated(model LatencyModel) *Integrated {
	return keep(&pb.inner, Integrated{Env: pb.Env, Placer: pb.Placer, Mapper: pb.Mapper, Model: cmp.Or(model, pb.Model)})
}

// Compile precomputes plans for the query under `states` hypothetical
// network conditions (jitter amount `amount`, e.g. 0.5), storing the
// distinct winners. It returns the number of distinct plans banked.
func (pb *PlanBank) Compile(q query.Query, states int, amount float64) (int, error) {
	if states < 1 {
		return 0, fmt.Errorf("optimizer: PlanBank.Compile states = %d", states)
	}
	if amount < 0 {
		amount = -amount
	}
	_, _, _, model := pb.integrated(nil).components()
	var banked []*query.PlanNode
	for k := 0; k < states; k++ {
		scenario := JitteredLatency{Base: model, Seed: uint64(k) + 1, Amount: amount}
		res, err := pb.integrated(scenario).Optimize(q)
		if err != nil {
			return 0, err
		}
		sig := res.Circuit.Plan.Signature()
		if !slices.ContainsFunc(banked, func(p *query.PlanNode) bool { return p.Signature() == sig }) {
			banked = append(banked, res.Circuit.Plan.Clone())
		}
	}
	pb.banks[q.ID] = banked
	return len(banked), nil
}

// Optimize answers the query using only its banked plans: each is
// re-rated in place (statistics may have drifted since compile; the
// bank holds clones of its own), placed under current conditions, and
// the cheapest circuit wins. Returns an error if the query was never
// compiled.
func (pb *PlanBank) Optimize(q query.Query) (*Result, error) {
	banked := pb.banks[q.ID]
	if len(banked) == 0 {
		return nil, fmt.Errorf("optimizer: query %d has no banked plans; call Compile first", q.ID)
	}
	for _, p := range banked {
		if err := p.ComputeRates(pb.Env.Stats); err != nil {
			return nil, err
		}
	}
	return pb.integrated(nil).optimizeInto(nil, q, banked, nil)
}

// PlanCacheKey identifies one cached optimization outcome: the query's
// consumer node and the canonical encoding of its stream set (including
// per-stream filters and the aggregate fraction, which change the plan
// space). Network conditions are not part of the key: an entry is
// served only while a miss would place the same circuit (see
// PlanCache).
type PlanCacheKey struct {
	Consumer topology.NodeID
	Streams  string
}

// appendCanonicalStreams appends to dst the parts of a query that
// determine its plan space — sorted stream IDs with filter selectivities
// (6 significant digits), plus the aggregate fraction — so queries listing
// the same streams in different orders share a cache key. Up to eight
// streams are sorted on the stack.
func appendCanonicalStreams(dst []byte, q query.Query) []byte {
	var stack [8]query.StreamID
	ids := append(stack[:0], q.Streams...)
	slices.Sort(ids)
	for i, s := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
		if sel, ok := q.FilterSel[s]; ok {
			dst = append(dst, '[')
			dst = strconv.AppendFloat(dst, sel, 'g', 6, 64)
			dst = append(dst, ']')
		}
	}
	if q.AggregateFraction > 0 {
		dst = append(dst, "|agg="...)
		dst = strconv.AppendFloat(dst, q.AggregateFraction, 'g', 6, 64)
	}
	return dst
}

// planKey is a PlanCacheKey being probed: its stream encoding lives in a
// buffer the batch worker reuses, so a lookup allocates nothing and only
// storing a new entry turns it into a string.
type planKey struct {
	consumer topology.NodeID
	streams  []byte
}

// PlanCache memoizes integrated optimizations across batches. Unlike
// PlanBank — which speculatively precompiles plans for hypothetical
// futures — the cache records what a full optimization chose, keyed by
// PlanCacheKey: the placed circuit, its estimated usage and its mapping
// statistics. A later query with the key is answered with a circuit
// header of its own, carrying its own Query, over the stored plan,
// services and links, with no enumeration and no placement. Those are
// shared by every answer of the key and never written:
// Deployment.Deploy copies the services and links it writes.
//
// Entries belong to one generation: an env, its DHT ring's membership
// and its re-embeddings and statistics changes; when any moves, the
// next batch flushes every entry. A load change or catalog republish
// only starts a new snapshot (frozen view, k-NN index, region map). An
// entry's first hit in a later snapshot maps each unpinned service
// again from its stored virtual coordinate, and serves the entry only
// if every host and the summed MapStats come back equal; otherwise the
// query runs as a miss. That is exact, because mapping is the only step
// of a miss that reads loads or the catalog: enumeration reads
// statistics, and virtual placement and CoordLatency read coordinates.
// An entry whose miss costed several plans is not revalidated: a
// losing plan may have got cheaper. A revalidated entry is stamped in
// place: the map holds an index into memos, and is not written again
// for a key it has.
//
// All methods are safe for concurrent use; OptimizeBatch workers share
// one cache.
type PlanCache struct {
	mu      sync.RWMutex
	gen     generation
	entries map[PlanCacheKey]int32 // index into memos
	memos   []memo

	hits atomic.Int64
	miss atomic.Int64
}

// generation is the state a cache's entries were placed against, and
// its current snapshot, numbered by seq across generations.
type generation struct {
	env                   *Env
	changes, reshapes     uint64 // ring membership changes, env.reshapes
	epoch, mutations, seq uint64 // the snapshot's
	snap                  *Env
	regions               *regionMap // for one region count, built on first use
}

// memo is one cache entry: what a circuit header needs of the circuit a
// miss placed, its usage, mapping statistics and plan count, and the
// snapshot it was last validated in.
type memo struct {
	plan                  *query.PlanNode
	services              []*PlacedService
	links                 []Link
	root, consumer, plans int32
	usage                 float64
	stats                 placement.MapStats
	seq                   uint64
}

// NewPlanCache returns an empty concurrent plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[PlanCacheKey]int32)}
}

// set builds q's key into k's own buffer.
func (k *planKey) set(q query.Query) {
	k.consumer = q.Consumer
	k.streams = appendCanonicalStreams(k.streams[:0], q)
}

// current returns the snapshot env's batches read now and, for k > 0,
// its region map for a k-way split (k = 0 cannot fail). It starts a new
// generation or snapshot first when env moved on (see PlanCache).
func (pc *PlanCache) current(env *Env, k int) (*Env, *regionMap, error) {
	var changes, mutations uint64
	if cat := env.Catalog(); cat != nil {
		changes, mutations = cat.Ring().Changes(), cat.Mutations()
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	g := &pc.gen
	if g.env != env || g.changes != changes || g.reshapes != env.reshapes {
		*g = generation{env: env, changes: changes, reshapes: env.reshapes, seq: g.seq}
		pc.flush()
	}
	if g.snap == nil || g.epoch != env.epoch || g.mutations != mutations {
		g.epoch, g.mutations, g.seq = env.epoch, mutations, g.seq+1
		g.snap, g.regions = freezeForBatch(env), nil
	}
	if k > 0 && (g.regions == nil || g.regions.k != k) {
		m, err := newRegionMap(g.snap, k)
		if err != nil {
			return nil, nil, err
		}
		g.regions = m
	}
	return g.snap, g.regions, nil
}

// flush drops every entry, and with them the plans, services and links
// they hold; the map and the memo slice keep their storage.
func (pc *PlanCache) flush() {
	clear(pc.entries)
	clear(pc.memos)
	pc.memos = pc.memos[:0]
}

// get returns the key's entry and whether it is valid in the current
// snapshot. The key's string conversion inside the index expression
// does not allocate.
func (pc *PlanCache) get(k *planKey) (m memo, found, valid bool) {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	i, found := pc.entries[PlanCacheKey{Consumer: k.consumer, Streams: string(k.streams)}]
	if found {
		m = pc.memos[i]
	}
	return m, found, found && m.seq == pc.gen.seq
}

// put stores m, valid in the current snapshot, under the key: over the
// key's entry if it has one, writing no map entry, else under a copy of
// the key carved from *arena. Valid entries for one key are equal, so
// overwriting one changes nothing.
func (pc *PlanCache) put(k *planKey, arena *[]byte, m memo) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	m.seq = pc.gen.seq
	if i, ok := pc.entries[PlanCacheKey{Consumer: k.consumer, Streams: string(k.streams)}]; ok {
		pc.memos[i] = m
		return
	}
	pc.entries[PlanCacheKey{k.consumer, query.Carve(arena, k.streams)}] = int32(len(pc.memos))
	pc.memos = append(pc.memos, m)
}

// Len returns the number of cached entries.
func (pc *PlanCache) Len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.entries)
}

// Stats returns the cumulative hit and miss counts; a failed
// revalidation counts as a miss.
func (pc *PlanCache) Stats() (hits, misses int) {
	return int(pc.hits.Load()), int(pc.miss.Load())
}
