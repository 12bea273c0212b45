package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/simtime"
	"github.com/hourglass/sbon/internal/topology"
)

// Randomized differential test for the sharded data plane: seeded
// random topologies, random application traffic (random targets, ports,
// sizes, reply chains), ambient drops and staggered crashes, run once
// on the single event queue and once per shard count on randomized lane
// maps. Every node's received-message log — who, what port, how big,
// sent when, delivered when — must match the single-queue run exactly,
// and the per-shard traffic counters must sum to the registry totals.
// Run it under -race: the parallel windows are exactly where an unsafe
// handler or counter would trip the detector.

// loggedMsg is one delivery as a comparable value.
type loggedMsg struct {
	from    topology.NodeID
	port    string
	sizeKB  float64
	sentAt  time.Time
	gotAt   time.Time
	payload int
}

type diffRun struct {
	logs   [][]loggedMsg
	shards []ShardCounters
	sent   float64
	hbSent float64
	hbRecv float64
	lost   float64
}

// diffNodes is the size of the differential topology: 16 transit
// nodes, each with two stub domains of 7 nodes.
const diffNodes = 240

// trafficCase is one differential scenario: the seed draws the
// topology, the traffic and the lane map; drop and crashes are its
// fault plan.
type trafficCase struct {
	seed    int64
	drop    float64
	crashes []NodeCrash
}

// seededCase is the scenario a seed alone chooses: 5% loss and three
// staggered crashes.
func seededCase(seed int64) trafficCase {
	tc := trafficCase{seed: seed, drop: 0.05}
	crashRng := rand.New(rand.NewSource(seed * 7))
	for i := 0; i < 3; i++ {
		tc.crashes = append(tc.crashes, NodeCrash{
			Node: topology.NodeID(crashRng.Intn(diffNodes)),
			At:   time.Duration(200+crashRng.Intn(800)) * time.Millisecond,
		})
	}
	return tc
}

// runRandomTraffic executes one scenario on shards randomized lanes
// (1: single queue) and returns the per-node logs plus counters.
func runRandomTraffic(t *testing.T, tc trafficCase, shards int) diffRun {
	t.Helper()
	seed := tc.seed
	topoCfg := topology.DefaultConfig()
	topoCfg.StubsPerTransit = 2
	topoCfg.StubNodes = 7
	topo, err := topology.Generate(topoCfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumNodes()
	if n != diffNodes {
		t.Fatalf("differential topology has %d nodes, want %d", n, diffNodes)
	}

	clk := simtime.NewVirtual()
	cfg := Config{TimeScale: time.Millisecond, Clock: clk}
	if shards > 1 {
		// Adversarial lane map: uniformly random, no cost-space locality
		// at all — most traffic crosses shards.
		laneRng := rand.New(rand.NewSource(seed * int64(shards)))
		laneOf := make([]int32, n)
		for i := range laneOf {
			laneOf[i] = int32(laneRng.Intn(shards))
		}
		lookahead := time.Duration(topo.MinEdgeLatency() * float64(cfg.TimeScale))
		if lookahead <= 0 {
			t.Fatal("topology has no positive edge latency")
		}
		clk.ShardLanes(laneOf, shards, lookahead)
		cfg.DataShards = shards
		cfg.ShardOf = laneOf
	}
	defer clk.Stop()
	net := NewNetwork(topo, cfg)
	defer net.Stop()

	// Every node logs every delivery; a node's handlers execute
	// serially in its own shard, so the per-node slices need no locks —
	// that is itself part of the contract under test (-race enforces it).
	logs := make([][]loggedMsg, n)
	for i := 0; i < n; i++ {
		i := i
		nd := net.Node(topology.NodeID(i))
		log := func(m Message) {
			logs[i] = append(logs[i], loggedMsg{
				from: m.From, port: m.Port, sizeKB: m.SizeKB, sentAt: m.SentAt,
				gotAt: net.NowAt(m.To), payload: m.Payload.(int),
			})
		}
		nd.Register("data", log)
		// "echo" additionally replies — a send from inside a window, as
		// the recipient, to a random-ish target derived from the payload.
		nd.Register("echo", func(m Message) {
			log(m)
			to := topology.NodeID(m.Payload.(int) % n)
			if to != m.To {
				nd.Send(to, "data", 0.5, m.Payload.(int)+1)
			}
		})
	}

	fi := net.InstallFaults(FaultPlan{Seed: seed, DropProb: tc.drop, JitterMs: 1.5, Crashes: tc.crashes})
	defer fi.Stop()
	hb := net.StartHeartbeats(150*time.Millisecond, 0.05)
	defer hb.Stop()

	// Per-node producers: each node streams messages to seeded-random
	// targets on seeded-random schedules, exactly the way the engine's
	// virtual producers do — node-domain events on the node's own shard.
	dc := net.Clock()
	for i := 0; i < n; i++ {
		i := i
		dom := simtime.Domain(i)
		prng := rand.New(rand.NewSource(seed*131 + int64(i)))
		var step func()
		msgs := 0
		step = func() {
			if msgs >= 40 {
				return
			}
			msgs++
			to := topology.NodeID(prng.Intn(n))
			port := "data"
			if prng.Intn(3) == 0 {
				port = "echo"
			}
			if to != topology.NodeID(i) {
				net.Node(topology.NodeID(i)).Send(to, port, 0.1+prng.Float64(), prng.Intn(1<<20))
			}
			dc.ScheduleDomain(dom, dom, time.Duration(1+prng.Intn(40))*time.Millisecond, step)
		}
		dc.ScheduleDomain(dom, dom, time.Duration(1+prng.Intn(20))*time.Millisecond, step)
	}

	clk.Sleep(3 * time.Second)
	hb.Stop()
	fi.Stop()

	return diffRun{
		logs:   logs,
		shards: net.ShardCounters(),
		sent:   net.Metrics.Counter("msgs.sent").Value(),
		hbSent: net.Metrics.Counter("hb.sent").Value(),
		hbRecv: net.Metrics.Counter("hb.recv").Value(),
		// The per-shard drop counter aggregates data and heartbeat drops;
		// the registry splits them.
		lost: net.Metrics.Counter("faults.dropped").Value() +
			net.Metrics.Counter("faults.hb_dropped").Value(),
	}
}

func TestShardedNetworkMatchesSingleQueueRandomized(t *testing.T) {
	for _, seed := range []int64{1, 42, 9001} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := seededCase(seed)
			base := runRandomTraffic(t, tc, 1)
			total := 0
			for _, l := range base.logs {
				total += len(l)
			}
			if total == 0 {
				t.Fatal("single-queue run delivered nothing — the scenario is vacuous")
			}
			if base.lost == 0 {
				t.Fatal("no injected drops — faults are not engaged")
			}
			for _, shards := range []int{2, 4, 8} {
				got := runRandomTraffic(t, tc, shards)
				compareRuns(t, shards, base, got)
			}
		})
	}
}

// FuzzShardedDeliveryMatchesSingleQueue: bytes → a scenario (two bytes
// of seed, the lane count 2–16, the drop probability 0–0.25, then up
// to eight crashes of three bytes each: node, crash time in 10 ms
// steps from 0, and a recovery delay when the third byte is odd), run
// on the single queue and on the sharded clock. compareRuns is the
// oracle: every delivery log and counter must match.
func FuzzShardedDeliveryMatchesSingleQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return int(v)
		}
		tc := trafficCase{seed: int64(next()<<8 | next())}
		shards := 2 + next()%15
		tc.drop = float64(next()%64) / 256
		for len(data) > 0 && len(tc.crashes) < 8 {
			c := NodeCrash{Node: topology.NodeID(next() % diffNodes), At: time.Duration(next()) * 10 * time.Millisecond}
			if r := next(); r&1 == 1 {
				c.RecoverAt = c.At + time.Duration(1+r>>1)*10*time.Millisecond
			}
			tc.crashes = append(tc.crashes, c)
		}
		compareRuns(t, shards, runRandomTraffic(t, tc, 1), runRandomTraffic(t, tc, shards))
	})
}

func compareRuns(t *testing.T, shards int, base, got diffRun) {
	t.Helper()
	for i := range base.logs {
		a, b := base.logs[i], got.logs[i]
		if len(a) != len(b) {
			t.Errorf("%d shards: node %d logged %d deliveries vs %d single-queue", shards, i, len(b), len(a))
			continue
		}
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("%d shards: node %d delivery %d diverges:\n  single-queue: %+v\n  sharded:      %+v",
					shards, i, j, a[j], b[j])
				break
			}
		}
	}
	if got.sent != base.sent || got.hbSent != base.hbSent || got.hbRecv != base.hbRecv || got.lost != base.lost {
		t.Errorf("%d shards: totals diverge: sent %v/%v hbSent %v/%v hbRecv %v/%v lost %v/%v",
			shards, got.sent, base.sent, got.hbSent, base.hbSent, got.hbRecv, base.hbRecv, got.lost, base.lost)
	}
	// The per-shard counters must decompose the registry totals.
	var sum ShardCounters
	for _, sc := range got.shards {
		sum.MsgsSent += sc.MsgsSent
		sum.HBSent += sc.HBSent
		sum.HBRecv += sc.HBRecv
		sum.FaultsDropped += sc.FaultsDropped
	}
	if float64(sum.MsgsSent) != got.sent {
		t.Errorf("%d shards: per-shard msgsSent sums to %d, registry says %v", shards, sum.MsgsSent, got.sent)
	}
	if float64(sum.HBSent) != got.hbSent {
		t.Errorf("%d shards: per-shard hbSent sums to %d, registry says %v", shards, sum.HBSent, got.hbSent)
	}
	if float64(sum.HBRecv) != got.hbRecv {
		t.Errorf("%d shards: per-shard hbRecv sums to %d, registry says %v", shards, sum.HBRecv, got.hbRecv)
	}
	if float64(sum.FaultsDropped) != got.lost {
		t.Errorf("%d shards: per-shard faultsDropped sums to %d, registry says %v", shards, sum.FaultsDropped, got.lost)
	}
}
