package dht

import (
	"math/rand"
	"testing"

	"github.com/hourglass/sbon/internal/overlay"
	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

// dropOracle returns a seeded 1-in-1/p drop oracle independent of the
// overlay (unit-level stand-in for FaultInjector.RPCOracle).
func dropOracle(seed int64, p float64) func(from, to topology.NodeID) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(from, to topology.NodeID) bool { return rng.Float64() < p }
}

func TestLookupRetriesUnderLoss(t *testing.T) {
	run := func() RingFaultStats {
		env := newTestEnv(t, 64, 21)
		env.ring.InstallFaults(RingFaults{Drop: dropOracle(99, 0.05)})
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 64; i++ {
			for j := 0; j < 5; j++ {
				k := ID(rng.Uint64())
				p, hops, err := env.ring.Lookup(topology.NodeID(i), k)
				if err != nil {
					t.Fatalf("lookup under 5%% loss failed: %v", err)
				}
				if p != env.ring.Owner(k) {
					t.Fatalf("lookup under loss returned node %d, owner is %d", p.Node(), env.ring.Owner(k).Node())
				}
				if hops < 0 || hops > 2*env.ring.NumPeers() {
					t.Fatalf("absurd hop count %d", hops)
				}
			}
		}
		return env.ring.FaultStats()
	}
	st := run()
	if st.RPCs == 0 || st.Retries == 0 {
		t.Fatalf("5%% loss over 320 lookups produced no retries: %+v", st)
	}
	if st.Backoff <= 0 {
		t.Fatalf("retries accumulated no backoff: %+v", st)
	}
	// Same seeds, fresh ring: the retry trace must replay bit-identically.
	if st2 := run(); st2 != st {
		t.Fatalf("fault stats not deterministic: %+v vs %+v", st, st2)
	}
}

func TestLookupFaultFreeKeepsZeroStats(t *testing.T) {
	env := newTestEnv(t, 32, 23)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 50; i++ {
		k := ID(rng.Uint64())
		if _, _, err := env.ring.Lookup(topology.NodeID(rng.Intn(32)), k); err != nil {
			t.Fatal(err)
		}
	}
	if st := env.ring.FaultStats(); st != (RingFaultStats{}) {
		t.Fatalf("fault-free ring accumulated stats: %+v", st)
	}
}

func TestLookupAllRPCsDroppedFails(t *testing.T) {
	env := newTestEnv(t, 16, 25)
	env.ring.InstallFaults(RingFaults{
		Drop: func(from, to topology.NodeID) bool { return true },
	})
	k := env.ring.Peers()[8].ID() // force at least one hop from peer 0's node
	start := env.ring.Peers()[0].Node()
	if _, _, err := env.ring.Lookup(start, k); err == nil {
		t.Fatal("lookup with every RPC dropped should fail")
	}
	if st := env.ring.FaultStats(); st.Failed == 0 {
		t.Fatalf("total loss recorded no failed RPCs: %+v", st)
	}
}

// TestLookupRetryWiredFromFaultInjector drives ring loss from the
// overlay fault injector's RPC oracle — the integration the simulator
// uses, sharing one scripted FaultPlan across data and control planes.
func TestLookupRetryWiredFromFaultInjector(t *testing.T) {
	tcfg := topology.Config{
		TransitDomains:      1,
		TransitNodes:        2,
		StubsPerTransit:     2,
		StubNodes:           3,
		IntraStubLatency:    [2]float64{1, 2},
		StubUplinkLatency:   [2]float64{2, 4},
		IntraTransitLatency: [2]float64{5, 10},
	}
	topo := topology.MustGenerate(tcfg, rand.New(rand.NewSource(1)))
	cfg := overlay.Config{Clock: simtime.NewVirtual()}
	clk := cfg.Clock
	net := overlay.NewNetwork(topo, cfg)
	defer func() {
		net.Stop()
		clk.Stop()
	}()
	fi := net.InstallFaults(overlay.FaultPlan{Seed: 7, DropProb: 0.1})
	defer fi.Stop()

	ring := NewRing()
	for i := 0; i < topo.NumNodes(); i++ {
		if _, err := ring.AddPeer(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ring.InstallFaults(RingFaults{Drop: fi.RPCOracle()})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		k := ID(rng.Uint64())
		p, _, err := ring.Lookup(topology.NodeID(rng.Intn(topo.NumNodes())), k)
		if err != nil {
			t.Fatalf("lookup %d failed under injected loss: %v", i, err)
		}
		if p != ring.Owner(k) {
			t.Fatalf("lookup %d found wrong owner", i)
		}
	}
	if st := ring.FaultStats(); st.Retries == 0 {
		t.Fatalf("10%% injected loss produced no retries: %+v", st)
	}
}

func TestCrashPeerRepairsFingersNoMigration(t *testing.T) {
	env := newTestEnv(t, 40, 26)
	rng := rand.New(rand.NewSource(27))
	totalBefore := 0
	for _, p := range env.ring.Peers() {
		totalBefore += len(p.Entries())
	}
	crashed := map[topology.NodeID]bool{}
	totalLost := 0
	for len(crashed) < 8 {
		v := topology.NodeID(rng.Intn(40))
		if crashed[v] {
			continue
		}
		lost, err := env.ring.CrashPeer(v)
		if err != nil {
			t.Fatal(err)
		}
		crashed[v] = true
		totalLost += lost
	}
	if env.ring.NumPeers() != 32 {
		t.Fatalf("ring size %d after 8 crashes, want 32", env.ring.NumPeers())
	}
	// Crashes migrate nothing: the survivors hold exactly what they
	// held before, minus nothing, and the lost entries are gone.
	totalAfter := 0
	for _, p := range env.ring.Peers() {
		totalAfter += len(p.Entries())
	}
	if totalAfter != totalBefore-totalLost {
		t.Fatalf("entries after crashes: %d, want %d - %d", totalAfter, totalBefore, totalLost)
	}
	// Routing still converges from every survivor.
	for i := 0; i < 40; i++ {
		if _, ok := env.ring.PeerFor(topology.NodeID(i)); !ok {
			continue
		}
		k := ID(rng.Uint64())
		p, _, err := env.ring.Lookup(topology.NodeID(i), k)
		if err != nil {
			t.Fatal(err)
		}
		if p != env.ring.Owner(k) {
			t.Fatal("post-crash lookup found wrong owner")
		}
	}
}

func TestCatalogRepairAfterCrash(t *testing.T) {
	env := newTestEnv(t, 48, 28)
	rng := rand.New(rand.NewSource(29))
	var dead []topology.NodeID
	seen := map[topology.NodeID]bool{}
	for len(dead) < 6 {
		v := topology.NodeID(rng.Intn(48))
		if !seen[v] {
			seen[v] = true
			dead = append(dead, v)
		}
	}
	rep := env.catalog.RepairAfterCrash(dead)
	if rep.CrashedPeers != 6 || rep.Unpublished != 6 {
		t.Fatalf("report %+v: want 6 crashed peers, 6 unpublished", rep)
	}
	if rep.Republished != rep.EntriesLost {
		t.Fatalf("report %+v: every lost survivor entry must republish", rep)
	}
	if got := env.catalog.NumPublished(); got != 42 {
		t.Fatalf("published %d after repair, want 42", got)
	}
	total := 0
	for _, p := range env.ring.Peers() {
		total += len(p.Entries())
	}
	if total != 42 {
		t.Fatalf("stored entries %d after repair, want 42", total)
	}

	// Every query path sees exactly the survivors.
	var start topology.NodeID = -1
	for i := 0; i < 48; i++ {
		if _, ok := env.ring.PeerFor(topology.NodeID(i)); ok {
			start = topology.NodeID(i)
			break
		}
	}
	target := env.space.IdealPoint(vivaldi.Coord{100, 100})
	res, err := walkEntries(env.catalog, start, target, env.ring.NumPeers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 42 {
		t.Fatalf("full scan found %d entries, want 42", len(res.Entries))
	}
	for _, e := range res.Entries {
		if seen[e.Node] {
			t.Fatalf("dead node %d still answers catalog queries", e.Node)
		}
	}
	for _, e := range scanNearest(env.catalog, target, 48) {
		if seen[e.Node] {
			t.Fatalf("dead node %d still published", e.Node)
		}
	}

	// Idempotent: the same dead set again is a no-op.
	if rep2 := env.catalog.RepairAfterCrash(dead); rep2 != (CrashRepairReport{}) {
		t.Fatalf("second repair of same dead set did work: %+v", rep2)
	}
}

// TestChurnUnderLoss runs crash/rejoin churn with 5% RPC loss: lookups
// must keep converging to the true owner and repairs must keep the
// catalog consistent.
func TestChurnUnderLoss(t *testing.T) {
	env := newTestEnv(t, 64, 30)
	env.ring.InstallFaults(RingFaults{Drop: dropOracle(31, 0.05)})
	rng := rand.New(rand.NewSource(32))
	alive := make([]topology.NodeID, 0, 64)
	for i := 0; i < 64; i++ {
		alive = append(alive, topology.NodeID(i))
	}
	var down []topology.NodeID
	for round := 0; round < 20; round++ {
		// Crash one live node and repair.
		vi := rng.Intn(len(alive))
		victim := alive[vi]
		alive = append(alive[:vi], alive[vi+1:]...)
		down = append(down, victim)
		env.catalog.RepairAfterCrash([]topology.NodeID{victim})
		// Every other round a previously crashed node recovers.
		if round%2 == 1 {
			back := down[0]
			down = down[1:]
			if err := env.catalog.Rejoin(back, env.points[back]); err != nil {
				t.Fatalf("round %d: rejoin %d: %v", round, back, err)
			}
			alive = append(alive, back)
		}
		if env.catalog.NumPublished() != len(alive) {
			t.Fatalf("round %d: published %d, alive %d", round, env.catalog.NumPublished(), len(alive))
		}
		for i := 0; i < 8; i++ {
			k := ID(rng.Uint64())
			start := alive[rng.Intn(len(alive))]
			p, _, err := env.ring.Lookup(start, k)
			if err != nil {
				t.Fatalf("round %d: lookup under churn+loss: %v", round, err)
			}
			if p != env.ring.Owner(k) {
				t.Fatalf("round %d: lookup found wrong owner", round)
			}
		}
	}
	total := 0
	for _, p := range env.ring.Peers() {
		total += len(p.Entries())
	}
	if total != len(alive) {
		t.Fatalf("stored entries %d after churn, want %d", total, len(alive))
	}
	if st := env.ring.FaultStats(); st.Retries == 0 || st.Backoff == 0 {
		t.Fatalf("churn under 5%% loss produced no retries: %+v", st)
	}
}

// nextHopFullScan is nextHop as it was before the scan learned where to
// start: every finger from the top, on every hop.
func nextHopFullScan(r *Ring, cur *Peer, k ID, succ *Peer) *Peer {
	var lastFailed *Peer
	for i := 63; i >= 0; i-- {
		f := r.finger(cur, i)
		if f == cur || f == lastFailed || !inOpenInterval(cur.id, k, f.id) {
			continue
		}
		if r.rpc(cur, f) {
			return f
		}
		lastFailed = f
	}
	if r.rpc(cur, succ) {
		return succ
	}
	return nil
}

// lookupFullScan is Lookup's routing loop over nextHopFullScan.
func lookupFullScan(r *Ring, start topology.NodeID, k ID) (owner *Peer, hops int, ok bool) {
	cur := r.byNode[start]
	for limit := 2 * len(r.peers); limit > 0; limit-- {
		succ := r.successorAfter(cur)
		if inHalfOpenInterval(cur.id, succ.id, k) {
			if !r.rpc(cur, succ) {
				return nil, hops, false
			}
			return succ, hops + 1, true
		}
		next := nextHopFullScan(r, cur, k, succ)
		if next == nil {
			return nil, hops, false
		}
		cur = next
		hops++
	}
	return nil, hops, false
}

// TestNextHopMatchesFullScan pins the shortened finger scan to the full
// one under loss: the fingers it skips must be exactly fingers the full
// scan rejects before dialling, so owner, hop count and the sequence of
// RPCs put to the drop oracle — whose seeded stream every later draw
// depends on — are the same. Each lookup runs twice on one ring with the
// oracle rewound in between; joins and crashes reshape the fingers as
// the run goes, and a third of the keys are peer ids, the start's own
// among them (the whole-circle interval).
func TestNextHopMatchesFullScan(t *testing.T) {
	type call struct{ from, to topology.NodeID }
	var calls []call
	draws := rand.New(rand.NewSource(0))
	r := NewRing()
	for n := topology.NodeID(0); n < 512; n++ {
		if _, err := r.AddPeer(n); err != nil {
			t.Fatal(err)
		}
	}
	// 30% loss: one RPC in 120 exhausts its retries and the hop degrades
	// to a lower finger.
	r.InstallFaults(RingFaults{Drop: func(from, to topology.NodeID) bool {
		calls = append(calls, call{from, to})
		return draws.Float64() < 0.3
	}})

	rng := rand.New(rand.NewSource(41))
	nextNode := topology.NodeID(512)
	failed, degraded := 0, 0
	for i := 0; i < 10000; i++ {
		if i%50 == 49 {
			if rng.Intn(2) == 0 {
				if _, err := r.AddPeer(nextNode); err != nil {
					t.Fatal(err)
				}
				nextNode++
			} else if _, err := r.CrashPeer(r.peers[rng.Intn(len(r.peers))].node); err != nil {
				t.Fatal(err)
			}
		}
		start := r.peers[rng.Intn(len(r.peers))]
		k := ID(rng.Uint64())
		switch i % 6 {
		case 0:
			k = r.peers[rng.Intn(len(r.peers))].id
		case 1:
			k = start.id
		}

		draws.Seed(int64(i))
		calls = calls[:0]
		before := r.FaultStats().Failed
		owner, hops, err := r.Lookup(start.node, k)
		got := append([]call(nil), calls...)
		if err != nil {
			failed++
		}
		if r.FaultStats().Failed > before {
			degraded++
		}

		draws.Seed(int64(i))
		calls = calls[:0]
		wantOwner, wantHops, ok := lookupFullScan(r, start.node, k)
		if (err == nil) != ok || owner != wantOwner || hops != wantHops {
			t.Fatalf("lookup %d (key %#x from node %d): %d hops, err %v; full scan %d hops, ok %v; same owner %v",
				i, uint64(k), start.node, hops, err, wantHops, ok, owner == wantOwner)
		}
		if len(got) != len(calls) {
			t.Fatalf("lookup %d: %d oracle calls, full scan made %d", i, len(got), len(calls))
		}
		for j := range got {
			if got[j] != calls[j] {
				t.Fatalf("lookup %d: oracle call %d is %v, full scan's is %v", i, j, got[j], calls[j])
			}
		}
	}
	if degraded < 100 {
		t.Fatalf("only %d lookups lost an RPC for good: the degraded path is not exercised", degraded)
	}
	t.Logf("%d lookups degraded to a lower finger, %d failed outright", degraded, failed)
}
