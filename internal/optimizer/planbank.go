package optimizer

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/hourglass/sbon/internal/placement"
	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
)

// UncostedUsage is the sentinel EstimatedUsage of a Result that has not
// costed any circuit yet. It is +Inf (declared as a variable because Go
// has no untyped infinite constant); always test with IsUncosted rather
// than comparing against a literal math.Inf(1), so a cache or bank hit
// can never mistake an uncosted entry for a real estimate.
var UncostedUsage = math.Inf(1)

// IsUncosted reports whether an EstimatedUsage value is the UncostedUsage
// sentinel rather than a real circuit estimate.
func IsUncosted(usage float64) bool { return math.IsInf(usage, 1) }

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
type PlanBank struct {
	Env *Env
	// Placer/Mapper/Model default like Integrated's.
	Placer placement.VirtualPlacer
	Mapper placement.Mapper
	Model  LatencyModel

	banks map[query.QueryID][]*query.PlanNode
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
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, uint64(a))
	put(8, uint64(b))
	put(16, j.Seed)
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

func (pb *PlanBank) components() (placement.VirtualPlacer, placement.Mapper, LatencyModel) {
	inner := &Integrated{Env: pb.Env, Placer: pb.Placer, Mapper: pb.Mapper, Model: pb.Model}
	_, placer, mapper, model := inner.components()
	return placer, mapper, model
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
	placer, mapper, model := pb.components()
	seen := make(map[string]bool)
	var banked []*query.PlanNode
	for k := 0; k < states; k++ {
		scenario := JitteredLatency{Base: model, Seed: uint64(k) + 1, Amount: amount}
		res, err := (&Integrated{
			Env: pb.Env, Placer: placer, Mapper: mapper, Model: scenario,
		}).Optimize(q)
		if err != nil {
			return 0, err
		}
		sig := res.Circuit.Plan.Signature()
		if !seen[sig] {
			seen[sig] = true
			banked = append(banked, res.Circuit.Plan.Clone())
		}
	}
	pb.banks[q.ID] = banked
	return len(banked), nil
}

// Optimize answers the query using only its banked plans: each is placed
// under current conditions and the cheapest circuit wins. Returns an
// error if the query was never compiled.
func (pb *PlanBank) Optimize(q query.Query) (*Result, error) {
	banked := pb.banks[q.ID]
	if len(banked) == 0 {
		return nil, fmt.Errorf("optimizer: query %d has no banked plans; call Compile first", q.ID)
	}
	placer, mapper, model := pb.components()
	b := &Builder{Env: pb.Env}
	res := &Result{PlansConsidered: len(banked)}
	res.EstimatedUsage = UncostedUsage
	for _, p := range banked {
		// Re-derive rates: statistics may have drifted since compile.
		cp := p.Clone()
		if err := cp.ComputeRates(pb.Env.Stats); err != nil {
			return nil, err
		}
		circuit, stats, err := buildPlaceMap(b, q, cp, placer, mapper)
		if err != nil {
			return nil, err
		}
		res.CircuitsConsidered++
		if usage := circuit.NetworkUsage(model); usage < res.EstimatedUsage {
			res.Circuit = circuit
			res.EstimatedUsage = usage
			res.MapStats = stats
		}
	}
	if IsUncosted(res.EstimatedUsage) {
		return nil, fmt.Errorf("optimizer: query %d produced no costed circuit from %d banked plans", q.ID, len(banked))
	}
	return res, nil
}

// PlanCacheKey identifies one cached optimization outcome: the query's
// consumer node and the canonical encoding of its stream set (including
// per-stream filters and the aggregate fraction, which change the plan
// space). Network conditions are not part of the key: the cache flushes
// whenever the environment's epoch moves, so within one cache generation
// two queries with equal keys are the same query up to their IDs.
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

// PlanCache memoizes winning logical plans across optimizations. Unlike
// PlanBank — which speculatively precompiles plans for hypothetical
// futures — the cache records the plan that actually won a full
// integrated optimization, keyed by PlanCacheKey, and answers later
// lookups for the same (consumer, stream set) with that plan so only
// placement has to be re-run. Stored plans are shared with the circuits
// placed over them and are never written: a plan is rated and signed
// once, when it leaves the optimizer.
//
// The cache is pinned to one environment's mutation epoch: a lookup
// flushes every entry when the snapshot's Epoch differs from the one the
// entries were populated under. A plan enumerated under superseded
// conditions (any load change, deploy, re-embedding or statistics
// change bumps the epoch) is therefore never served — which keeps batch
// results identical to what sequential Optimize would produce on the
// current state — and the cache's size stays bounded by the distinct
// keys of the current epoch. Use one cache per Env: the key does not name
// the environment.
//
// All methods are safe for concurrent use; OptimizeBatch workers share
// one cache.
type PlanCache struct {
	mu    sync.RWMutex
	epoch uint64
	plans map[PlanCacheKey]*query.PlanNode

	hits atomic.Int64
	miss atomic.Int64
}

// NewPlanCache returns an empty concurrent plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[PlanCacheKey]*query.PlanNode)}
}

// set builds q's key into k's own buffer.
func (k *planKey) set(q query.Query) {
	k.consumer = q.Consumer
	k.streams = appendCanonicalStreams(k.streams[:0], q)
}

// syncEpoch discards all entries when the environment's mutation epoch
// has moved past the one they were populated under. OptimizeBatch calls
// it once, before its workers start, so a lookup takes no extra lock.
func (pc *PlanCache) syncEpoch(epoch uint64) {
	pc.mu.RLock()
	same := pc.epoch == epoch
	pc.mu.RUnlock()
	if same {
		return
	}
	pc.mu.Lock()
	if pc.epoch != epoch {
		pc.epoch = epoch
		clear(pc.plans)
	}
	pc.mu.Unlock()
}

// get returns the cached plan for the key, or nil on a miss. The plan is
// shared, not copied: it is read-only once it leaves the optimizer, so
// concurrent hits place circuits over one tree. Lookups take only the
// read lock (counters are atomic), and the key's string conversion
// inside the index expression does not allocate.
func (pc *PlanCache) get(k *planKey) *query.PlanNode {
	pc.mu.RLock()
	p, ok := pc.plans[PlanCacheKey{Consumer: k.consumer, Streams: string(k.streams)}]
	pc.mu.RUnlock()
	if !ok {
		pc.miss.Add(1)
		return nil
	}
	pc.hits.Add(1)
	return p
}

// Put stores the winning plan under the key without copying it: the
// caller's circuit and every later hit share the tree, which nobody may
// write (writers copy first, with Clone or ShallowClone). Existing
// entries are overwritten (last winner wins; entries for the same key
// are equivalent by construction).
func (pc *PlanCache) Put(k PlanCacheKey, p *query.PlanNode) {
	if p == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.plans[k] = p
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.plans)
}

// Stats returns the cumulative hit and miss counts.
func (pc *PlanCache) Stats() (hits, misses int) {
	return int(pc.hits.Load()), int(pc.miss.Load())
}
