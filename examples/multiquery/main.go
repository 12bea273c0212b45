// Multi-query optimization: several dashboards subscribe to overlapping
// join queries. New circuits reuse the running services of earlier ones
// when those services fall within a cost-space radius of their ideal
// placement — the paper's §3.4 pruning. The example sweeps the radius to
// show the work/benefit trade-off, then executes both dashboards on the
// virtual-time engine: the shared join runs once, its tuples fan out to
// both consumers.
package main

import (
	"fmt"
	"log"
	"math"

	sbon "github.com/hourglass/sbon"
)

func main() {
	sys, err := sbon.New(sbon.Options{
		Seed: 11,
		Topology: sbon.TopologyConfig{
			TransitDomains:      4,
			TransitNodes:        4,
			StubsPerTransit:     3,
			StubNodes:           4,
			IntraStubLatency:    [2]float64{1, 6},
			StubUplinkLatency:   [2]float64{2, 12},
			IntraTransitLatency: [2]float64{8, 25},
			InterTransitLatency: [2]float64{35, 90},
			ExtraStubEdgeProb:   0.15,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	stubs := sys.StubNodes()
	// Market data feeds from four exchanges.
	for i := 0; i < 4; i++ {
		if err := sys.AddStream(sbon.StreamID(i), stubs[i*12], 80+float64(i)*40); err != nil {
			log.Fatal(err)
		}
	}

	// First dashboard: correlate feeds 0⋈1⋈2, deployed fresh.
	base := sbon.Query{ID: 1, Consumer: stubs[5], Streams: []sbon.StreamID{0, 1, 2}}
	r1, err := sys.Optimize(base)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deploy(r1.Circuit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dashboard 1 deployed: %s\n", r1.Circuit)
	fmt.Printf("  usage %.1f KB·ms/s\n\n", sys.Usage(r1.Circuit))

	// Second dashboard wants the same correlation elsewhere. Sweep the
	// pruning radius.
	probe := sbon.Query{ID: 2, Consumer: stubs[40], Streams: []sbon.StreamID{0, 1, 2}}
	fmt.Println("radius sweep for dashboard 2 (same join, different consumer):")
	fmt.Printf("%-14s %-10s %-10s %-14s\n", "radius", "examined", "reused", "marginal usage")
	for _, radius := range []float64{0, 10, 25, 50, 100, math.Inf(1)} {
		res, err := sys.OptimizeShared(probe, radius)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%.0f", radius)
		if math.IsInf(radius, 1) {
			label = "inf"
		}
		fmt.Printf("%-14s %-10d %-10d %14.1f\n",
			label, res.InstancesExamined, res.ReusedServices, sys.Usage(res.Circuit))
	}

	// Deploy with a moderate radius and show the shared total.
	res, err := sys.OptimizeShared(probe, 100)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deploy(res.Circuit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndashboard 2 deployed reusing %d service(s): %s\n", res.ReusedServices, res.Circuit)
	fmt.Printf("total usage for both dashboards: %.1f KB·ms/s (first alone was %.1f)\n",
		sys.TotalUsage(), sys.Usage(r1.Circuit))

	// Execute both dashboards: the shared services run once on the data
	// plane, their tuples delivered to both consumers.
	if err := sys.StartEngine(); err != nil {
		log.Fatal(err)
	}
	run1, err := sys.Run(r1.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	run2, err := sys.Run(res.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RunFor(10); err != nil {
		log.Fatal(err)
	}
	st := sys.SharedExecution()
	m1, m2 := run1.Measure(), run2.Measure()
	fmt.Printf("\nexecuted 10 simulated seconds: %d shared instance(s) feeding %d subscriber circuit(s)\n",
		st.Instances, st.Subscribers)
	fmt.Printf("dashboard 1 delivered %d tuples; dashboard 2 delivered %d (of them %d arrived over shared edges)\n",
		m1.TuplesOut, m2.TuplesOut, run2.SharedIn())
}
