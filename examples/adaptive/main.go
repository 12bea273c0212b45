// Adaptive execution: a circuit is optimized, deployed onto the
// overlay runtime, and run with real tuples. The measured delivery
// rate, latency, and network usage are compared against the
// optimizer's analytic model — then the environment shifts and the
// system re-optimizes *while the circuit keeps running*: the operator
// migrates to a better host through the engine's buffered handoff with
// zero tuple loss. The engine runs on the virtual clock, so the
// simulated measurement windows complete instantly and the measured
// numbers are identical on every run.
package main

import (
	"fmt"
	"log"

	sbon "github.com/hourglass/sbon"
)

func main() {
	sys, err := sbon.New(sbon.Options{
		Seed: 5,
		Topology: sbon.TopologyConfig{
			TransitDomains:      2,
			TransitNodes:        2,
			StubsPerTransit:     2,
			StubNodes:           4,
			IntraStubLatency:    [2]float64{1, 5},
			StubUplinkLatency:   [2]float64{2, 10},
			IntraTransitLatency: [2]float64{8, 20},
			InterTransitLatency: [2]float64{30, 80},
			ExtraStubEdgeProb:   0.2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	stubs := sys.StubNodes()
	if err := sys.AddStream(0, stubs[0], 60); err != nil {
		log.Fatal(err)
	}
	if err := sys.AddStream(1, stubs[7], 90); err != nil {
		log.Fatal(err)
	}

	q := sbon.Query{ID: 1, Consumer: stubs[len(stubs)-1], Streams: []sbon.StreamID{0, 1}}
	res, err := sys.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deploy(res.Circuit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %s\n", res.Circuit)
	fmt.Printf("analytic: usage %.1f KB·ms/s, rate %.1f KB/s, latency %.1f ms\n",
		sys.Usage(res.Circuit), res.Circuit.Plan.OutRate, sys.Latency(res.Circuit))

	if err := sys.StartEngine(); err != nil {
		log.Fatal(err)
	}
	run, err := sys.Run(res.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstreaming for 40 simulated seconds (instant: time is simulated)...")
	if err := sys.RunFor(40); err != nil {
		log.Fatal(err)
	}
	m := run.Measure()
	fmt.Printf("measured: usage %.1f KB·ms/s, rate %.1f KB/s, mean latency %.1f ms (p95 %.1f) over %d tuples\n",
		m.NetworkUsage, m.OutRateKBs, m.MeanLatencyMs, m.P95LatencyMs, m.TuplesOut)

	// The world changes: the join's host gets busy. Re-optimize WITHOUT
	// stopping the circuit — the adaptation layer plans the move and the
	// engine migrates the running operator (buffer → cutover → forward).
	victim := res.Circuit.UnpinnedServices()[0].Node
	fmt.Printf("\nnode %d becomes overloaded; adapting while the circuit runs...\n", victim)
	sys.SetBackgroundLoad(victim, 0.95)
	before := run.Measure().TuplesOut
	stats, err := sys.Adapt(sbon.AdaptOptions{Sweeps: 1})
	if err != nil {
		log.Fatal(err)
	}
	st := stats[0]
	fmt.Printf("%d service(s) evaluated, %d migrated live (buffered %d tuples during handoff)\n",
		st.ServicesEvaluated, st.Migrated, st.Buffered)
	if err := sys.RunFor(20); err != nil {
		log.Fatal(err)
	}
	after := run.Measure().TuplesOut
	fmt.Printf("circuit now: %s (usage %.1f KB·ms/s)\n", res.Circuit, sys.Usage(res.Circuit))
	fmt.Printf("delivery across the migration: %d → %d tuples, no interruption\n", before, after)
	if err := sys.StopRun(q.ID); err != nil {
		log.Fatal(err)
	}
}
