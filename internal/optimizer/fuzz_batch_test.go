package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/query"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// batchFuzzBytes hands out an input byte by byte; an exhausted input
// reads as zeroes, so every prefix of an input is an input.
type batchFuzzBytes struct{ data []byte }

func (b *batchFuzzBytes) more() bool { return len(b.data) > 0 }

func (b *batchFuzzBytes) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

// batchWorld is the env and the one plan cache a fuzz input drives,
// with the query pool its batches draw from.
type batchWorld struct {
	t       *testing.T
	env     *Env
	cache   *PlanCache
	dep     *Deployment
	pool    []query.Query
	last    []Result // the last batch's answers
	nextID  query.QueryID
	crashed int
}

// newBatchWorld builds a 68-node env, with or without a DHT catalog,
// and a pool of queries of one to three streams, some aggregated or
// filtered. The ring is large enough that a mapping walk (at most 32
// peers) covers part of it, so which peers a walk visits, and the route
// a lookup takes, depend on where the target's key falls. Every pool
// query lists its streams in ascending order: a batch answers a key
// with whatever its first miss placed, and two orders of one stream set
// can place differently, so the pool holds one order per set.
func newBatchWorld(t *testing.T, useDHT bool) *batchWorld {
	topo := topology.MustGenerate(topology.Config{
		TransitDomains:      2,
		TransitNodes:        2,
		StubsPerTransit:     2,
		StubNodes:           8,
		IntraStubLatency:    [2]float64{1, 5},
		StubUplinkLatency:   [2]float64{2, 10},
		IntraTransitLatency: [2]float64{8, 20},
		InterTransitLatency: [2]float64{30, 80},
		ExtraStubEdgeProb:   0.2,
	}, rand.New(rand.NewSource(21)))
	stats, err := query.NewCatalog(0.8)
	if err != nil {
		t.Fatal(err)
	}
	stubs := topo.StubNodeIDs()
	for i := 0; i < 4; i++ {
		if err := stats.AddStream(query.StreamID(i), stubs[i*len(stubs)/4], 50+40*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultEnvConfig(21)
	cfg.UseDHT = useDHT
	cfg.VivaldiRounds = 25
	env, err := NewEnv(topo, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &batchWorld{t: t, env: env, cache: NewPlanCache(), dep: NewDeployment(env, nil)}
	sets := []struct {
		streams []query.StreamID
		agg     float64
		filter  bool
	}{
		{[]query.StreamID{0}, 0.5, false},
		{[]query.StreamID{2}, 0.25, true},
		{[]query.StreamID{0, 1}, 0, false},
		{[]query.StreamID{1, 3}, 0, true},
		{[]query.StreamID{0, 2}, 0.5, false},
		{[]query.StreamID{2, 3}, 0, false},
		{[]query.StreamID{0, 1, 2}, 0, false},
		{[]query.StreamID{1, 2, 3}, 0.3, false},
	}
	for i, s := range sets {
		for j := 0; j < 2; j++ {
			q := query.Query{Consumer: stubs[(3*i+5*j)%len(stubs)], Streams: s.streams, AggregateFraction: s.agg}
			if s.filter {
				q.FilterSel = map[query.StreamID]float64{s.streams[0]: 0.4}
			}
			w.pool = append(w.pool, q)
		}
	}
	return w
}

// node picks any node of the env.
func (w *batchWorld) node(b *batchFuzzBytes) topology.NodeID {
	return topology.NodeID(b.next() % w.env.Topo.NumNodes())
}

// batch runs one batch on the shared cache — plain on 1–4 workers, or
// sharded over 2 or 4 regions — and holds every answer to sequential
// Integrated on a fresh Freeze of the env. A query whose consumer has
// crashed out of the DHT ring fails sequentially, and then the batch
// must fail too; it runs again without such queries.
func (w *batchWorld) batch(b *batchFuzzBytes) {
	t := w.t
	workers, shards, n := 1+b.next()%4, b.next()%3, 1+b.next()%16
	qs := make([]query.Query, n)
	for i := range qs {
		qs[i] = w.pool[b.next()%len(w.pool)]
		w.nextID++
		qs[i].ID = w.nextID
	}
	fresh := NewIntegrated(w.env.Freeze())
	var live []query.Query
	var want []*Result
	for _, q := range qs {
		if r, err := fresh.Optimize(q); err == nil {
			live = append(live, q)
			want = append(want, r)
		}
	}
	run := func(qs []query.Query) ([]Result, error) {
		if shards == 0 {
			return OptimizeBatch(w.env, qs, BatchOptions{Workers: workers, Cache: w.cache})
		}
		got, _, err := OptimizeBatchSharded(w.env, qs, ShardedBatchOptions{Shards: 2 * shards, Caches: &ShardedPlanCache{cache: w.cache}})
		return got, err
	}
	got, err := run(qs)
	if len(live) < len(qs) {
		if err == nil {
			t.Fatalf("the batch answered all %d queries; %d fail sequentially", len(qs), len(qs)-len(live))
		}
		got, err = run(live)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		requireSameAnswer(t, i, &got[i], want[i])
	}
	w.last = got
}

// requireSameAnswer compares a batch answer with a sequential one: the
// plan, every host, the estimated usage to the bit and the mapping
// statistics.
func requireSameAnswer(t *testing.T, i int, got, want *Result) {
	t.Helper()
	gc, wc := got.Circuit, want.Circuit
	if gc.Plan.Signature() != wc.Plan.Signature() || len(gc.Services) != len(wc.Services) {
		t.Fatalf("query %d (from cache %v): plan %s, want %s", i, got.FromCache, gc.Plan.Signature(), wc.Plan.Signature())
	}
	for s := range gc.Services {
		if gc.Services[s].Node != wc.Services[s].Node {
			t.Fatalf("query %d (from cache %v) service %d: node %d, want %d", i, got.FromCache, s, gc.Services[s].Node, wc.Services[s].Node)
		}
	}
	if math.Float64bits(got.EstimatedUsage) != math.Float64bits(want.EstimatedUsage) || got.MapStats != want.MapStats {
		t.Fatalf("query %d (from cache %v): usage %v, %+v; want %v, %+v", i, got.FromCache,
			got.EstimatedUsage, got.MapStats, want.EstimatedUsage, want.MapStats)
	}
}

// setLoads sets the background load of one to three nodes, now and
// then a host the last batch placed a service on.
func (w *batchWorld) setLoads(b *batchFuzzBytes) {
	for k := 1 + b.next()%3; k > 0; k-- {
		n := w.node(b)
		if sel := b.next(); sel&1 == 1 && len(w.last) > 0 {
			if svcs := w.last[sel/2%len(w.last)].Circuit.UnpinnedServices(); len(svcs) > 0 {
				n = svcs[0].Node
			}
		}
		w.env.SetBackgroundLoad(n, float64(b.next())/256)
	}
}

// deployAndMigrate deploys a hit of the last batch, then commits a
// migration of one of its unpinned services to another node.
func (w *batchWorld) deployAndMigrate(b *batchFuzzBytes) {
	t := w.t
	pick := b.next()
	for k := range w.last {
		r := &w.last[(pick+k)%len(w.last)]
		if !r.FromCache {
			continue
		}
		c := r.Circuit
		if _, deployed := w.dep.Circuit(c.Query.ID); deployed {
			continue
		}
		if err := w.dep.Deploy(c); err != nil {
			t.Fatal(err)
		}
		for i, s := range c.Services {
			if s.Pinned || s.Plan == nil {
				continue
			}
			nodes := topology.NodeID(w.env.Topo.NumNodes())
			to := (s.Node + 1 + topology.NodeID(b.next())%(nodes-1)) % nodes
			tk, err := w.dep.BeginMigration(Migration{Query: c.Query.ID, Service: i, From: s.Node, To: to})
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Commit(); err != nil {
				t.Fatal(err)
			}
			break
		}
		return
	}
}

// crash crashes a node out of the DHT ring and repairs the catalog, at
// most three times an input. A crashed consumer can no longer start a
// lookup, so its queries fail from then on.
func (w *batchWorld) crash(b *batchFuzzBytes) {
	n := w.node(b)
	cat := w.env.Catalog()
	if cat == nil || w.crashed >= 3 {
		return
	}
	if _, member := cat.Ring().PeerFor(n); !member {
		return
	}
	cat.RepairAfterCrash([]topology.NodeID{n})
	w.crashed++
}

// sync moves one or two nodes' coordinates, or (bulk) at least a
// quarter of them, the rule under which SetCoordinates drops the k-NN
// index and republishes in one pass.
func (w *batchWorld) sync(b *batchFuzzBytes) {
	nodes := w.env.Topo.NumNodes()
	coords := append([]vivaldi.Coord(nil), w.env.vec...)
	moves := 1 + b.next()%2
	if b.next()&1 == 1 {
		moves = nodes/4 + b.next()%(nodes-nodes/4+1)
	}
	first := b.next()
	for i := 0; i < moves; i++ {
		n := (first + i) % nodes
		c := append(vivaldi.Coord(nil), coords[n]...)
		c[0] += float64(b.next()-128) / 8
		c[1] += float64(b.next()-128) / 8
		coords[n] = c
	}
	if _, err := w.env.SetCoordinates(coords); err != nil {
		w.t.Fatal(err)
	}
}

// restat changes one pair's join selectivity and notes it.
func (w *batchWorld) restat(b *batchFuzzBytes) {
	x, y := query.StreamID(b.next()%4), query.StreamID(b.next()%4)
	if x == y {
		y = (x + 1) % 4
	}
	if err := w.env.Stats.SetPairSelectivity(x, y, 0.05+float64(b.next())/256); err != nil {
		w.t.Fatal(err)
	}
	w.env.NoteStatsChanged()
}

// requireCatalogConsistent holds the DHT catalog to what publishing
// node by node leaves: every published entry stored once, at its key's
// owner, under the key its point encodes to. Every batch and every
// sequential answer read the same catalog, so this is what catches a
// republish that leaves stale copies.
func (w *batchWorld) requireCatalogConsistent() {
	t, cat := w.t, w.env.Catalog()
	if cat == nil {
		return
	}
	stored := 0
	for _, p := range cat.Ring().Peers() {
		for _, e := range p.Entries() {
			stored++
			pub, ok := cat.PublishedEntry(e.Node)
			if !ok || pub.Key != e.Key || &pub.Point[0] != &e.Point[0] || cat.KeyOf(e.Point) != e.Key || cat.Ring().Owner(e.Key) != p {
				t.Fatalf("peer %d stores node %d under key %#x; published %v under %#x", p.Node(), e.Node, uint64(e.Key), ok, uint64(pub.Key))
			}
		}
	}
	if stored != cat.NumPublished() {
		t.Fatalf("the ring stores %d entries for %d published nodes", stored, cat.NumPublished())
	}
}

// FuzzBatchMatchesFreshOptimize: bytes → a sequence of batches on one
// shared plan cache, interleaved with the mutations a cache generation
// and its revalidation must survive or end on: load changes, a deploy
// of a hit and a committed migration of it, a catalog crash repair,
// small and bulk coordinate syncs, and statistics changes. Every batch
// answer must equal sequential Integrated on a fresh Freeze of the env.
func FuzzBatchMatchesFreshOptimize(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 11, 0, 2, 4, 6, 8, 10, 12, 14, 1, 5, 3, 7, 9, 11, 13, 15,
		1, 2, 1, 3, 200, 5, 1, 9, 250, 0, 0, 2, 0, 11, 0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7})
	f.Add([]byte{0, 0, 0, 0, 7, 2, 3, 4, 5, 10, 11, 12, 13, 0, 1, 1, 8, 0, 0, 7, 2, 3, 4, 5, 10, 11, 12, 13,
		3, 9, 0, 0, 1, 0, 7, 2, 3, 4, 5, 10, 11, 12, 13,
		4, 1, 1, 0, 3, 140, 120, 90, 160, 100, 100, 200, 60, 0, 0, 2, 0, 7, 2, 3, 4, 5, 10, 11, 12, 13})
	f.Add([]byte{1, 0, 3, 2, 9, 4, 5, 6, 7, 12, 13, 14, 15, 8, 9,
		5, 0, 1, 40, 0, 3, 1, 9, 4, 5, 6, 7, 12, 13, 14, 15, 8, 9,
		4, 0, 0, 4, 150, 110, 0, 0, 0, 9, 4, 5, 6, 7, 12, 13, 14, 15, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &batchFuzzBytes{data: data}
		w := newBatchWorld(t, b.next()&1 == 0)
		for b.more() {
			switch b.next() % 6 {
			case 0:
				w.batch(b)
			case 1:
				w.setLoads(b)
			case 2:
				w.deployAndMigrate(b)
			case 3:
				w.crash(b)
			case 4:
				w.sync(b)
			case 5:
				w.restat(b)
			}
			w.requireCatalogConsistent()
		}
		w.batch(&batchFuzzBytes{data: []byte{1, 0, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}})
	})
}
