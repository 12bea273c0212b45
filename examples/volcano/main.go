// Volcano monitoring: the paper's motivating scenario ("live sensor
// readings from a volcano originate at a particular volcano; one cannot
// move mountains"). Seismic and acoustic sensor streams are pinned to one
// stub domain; a distant observatory joins, filters, and aggregates them.
// The example shows load-aware placement: when the node hosting the join
// becomes busy, re-optimization migrates the service away.
package main

import (
	"fmt"
	"log"

	sbon "github.com/hourglass/sbon"
)

func main() {
	sys, err := sbon.New(sbon.Options{
		Seed: 7,
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

	// The volcano: stub domain 0. Sensors are pinned producers there.
	volcano := sys.Topo.StubDomainMembers(0)
	sensors := []struct {
		id   sbon.StreamID
		node sbon.NodeID
		rate float64
	}{
		{0, volcano[0], 120}, // seismometer
		{1, volcano[1], 120}, // second seismometer
		{2, volcano[2], 60},  // acoustic sensor
	}
	for _, s := range sensors {
		if err := sys.AddStream(s.id, s.node, s.rate); err != nil {
			log.Fatal(err)
		}
	}
	// Correlated seismometers join selectively.
	if err := sys.SetJoinSelectivity(0, 1, 0.3); err != nil {
		log.Fatal(err)
	}

	// The observatory sits in the last stub domain, across the WAN.
	lastDomain := sys.Topo.StubDomainMembers(sys.Topo.NumStubDomains() - 1)
	observatory := lastDomain[0]

	q := sbon.Query{
		ID:       1,
		Consumer: observatory,
		Streams:  []sbon.StreamID{0, 1, 2},
		// Drop low-energy readings at the sensors.
		FilterSel: map[sbon.StreamID]float64{0: 0.5, 1: 0.5},
		// Ship only windowed summaries over the long haul.
		AggregateFraction: 0.1,
	}

	res, err := sys.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volcano feed plan: %s\n", res.Circuit.Plan)
	fmt.Printf("placed: %s\n", res.Circuit)
	fmt.Printf("usage %.1f KB·ms/s, observatory latency %.1f ms\n",
		sys.Usage(res.Circuit), sys.Latency(res.Circuit))
	if err := sys.Deploy(res.Circuit); err != nil {
		log.Fatal(err)
	}

	// A hosting node gets busy (someone started a backup job on it).
	victim := res.Circuit.UnpinnedServices()[0].Node
	fmt.Printf("\nnode %d (hosting %s) becomes heavily loaded...\n",
		victim, res.Circuit.UnpinnedServices()[0].Plan.Kind)
	sys.SetBackgroundLoad(victim, 0.95)

	stats, err := sys.Adapt(sbon.AdaptOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-optimization sweep: %d service(s) evaluated, %d migrated\n",
		stats[0].ServicesEvaluated, stats[0].Migrated)
	fmt.Printf("circuit now: %s\n", res.Circuit)
	fmt.Printf("usage %.1f KB·ms/s, latency %.1f ms\n",
		sys.Usage(res.Circuit), sys.Latency(res.Circuit))
}
