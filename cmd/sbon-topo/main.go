// Command sbon-topo generates transit-stub topologies, reports their
// statistics, embeds Vivaldi coordinates, and exports CSVs for
// inspection or plotting.
//
// Usage:
//
//	sbon-topo -seed 7 -stats
//	sbon-topo -stub-nodes 12 -nodes-csv nodes.csv -edges-csv edges.csv
//	sbon-topo -embed -rounds 40
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/hourglass/sbon/internal/topology"
	"github.com/hourglass/sbon/internal/vivaldi"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "generator seed")
		domains   = flag.Int("transit-domains", 4, "transit domains")
		tnodes    = flag.Int("transit-nodes", 4, "transit nodes per domain")
		stubs     = flag.Int("stubs-per-transit", 3, "stub domains per transit node")
		stubNodes = flag.Int("stub-nodes", 12, "nodes per stub domain")
		stats     = flag.Bool("stats", true, "print topology statistics")
		nodesCSV  = flag.String("nodes-csv", "", "write node table to this file")
		edgesCSV  = flag.String("edges-csv", "", "write edge table to this file")
		embed     = flag.Bool("embed", false, "embed Vivaldi coordinates and report error")
		rounds    = flag.Int("rounds", 40, "Vivaldi rounds for -embed")
		embedDims = flag.Int("dims", 2, "Vivaldi dimensions for -embed")
	)
	flag.Parse()

	cfg := topology.DefaultConfig()
	cfg.TransitDomains = *domains
	cfg.TransitNodes = *tnodes
	cfg.StubsPerTransit = *stubs
	cfg.StubNodes = *stubNodes

	topo, err := topology.Generate(cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fail(err)
	}
	if *stats {
		fmt.Println(topo.ComputeStats())
	}
	if *nodesCSV != "" {
		if err := writeTo(*nodesCSV, topo.WriteNodesCSV); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *nodesCSV)
	}
	if *edgesCSV != "" {
		if err := writeTo(*edgesCSV, topo.WriteEdgesCSV); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *edgesCSV)
	}
	if *embed {
		vcfg := vivaldi.DefaultConfig()
		vcfg.Dims = *embedDims
		rng := rand.New(rand.NewSource(*seed + 1))
		emb, err := vivaldi.Embed(topo.NumNodes(), topo.PairLatency, vcfg, *rounds, 4, rng)
		if err != nil {
			fail(err)
		}
		q := emb.Evaluate(topo.PairLatency, 5000, rng)
		fmt.Printf("vivaldi %d-D after %d rounds: %s\n", *embedDims, *rounds, q)
	}
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sbon-topo: %v\n", err)
	os.Exit(1)
}
