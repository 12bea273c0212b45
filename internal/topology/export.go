package topology

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteNodesCSV writes one row per node: id, kind, transit_domain,
// stub_domain, degree.
func (t *Topology) WriteNodesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "kind", "transit_domain", "stub_domain", "degree"}); err != nil {
		return fmt.Errorf("topology: write csv header: %w", err)
	}
	for _, n := range t.nodes {
		rec := []string{
			strconv.Itoa(int(n.ID)),
			n.Kind.String(),
			strconv.Itoa(n.TransitDomain),
			strconv.Itoa(n.StubDomain),
			strconv.Itoa(t.Degree(n.ID)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("topology: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEdgesCSV writes one row per edge: a, b, latency_ms.
func (t *Topology) WriteEdgesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"a", "b", "latency_ms"}); err != nil {
		return fmt.Errorf("topology: write csv header: %w", err)
	}
	for _, e := range t.edges {
		rec := []string{
			strconv.Itoa(int(e.A)),
			strconv.Itoa(int(e.B)),
			strconv.FormatFloat(e.Latency, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("topology: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Stats summarizes a topology for logs and experiment output.
type Stats struct {
	Nodes        int
	TransitNodes int
	StubNodes    int
	StubDomains  int
	Edges        int
	MinLatency   float64 // smallest pairwise shortest-path latency (excl. self)
	MaxLatency   float64 // graph diameter in latency terms
	MeanLatency  float64 // mean pairwise latency
}

// ComputeStats computes summary statistics over every node pair.
func (t *Topology) ComputeStats() Stats {
	s := Stats{
		Nodes:       t.NumNodes(),
		Edges:       len(t.edges),
		StubDomains: t.NumStubDomains(),
	}
	for _, n := range t.nodes {
		if n.Kind == Transit {
			s.TransitNodes++
		} else {
			s.StubNodes++
		}
	}
	first := true
	var sum float64
	var count int
	for i := range t.nodes {
		for j := i + 1; j < len(t.nodes); j++ {
			d := t.Latency(NodeID(i), NodeID(j))
			sum += d
			count++
			if first || d < s.MinLatency {
				s.MinLatency = d
			}
			if first || d > s.MaxLatency {
				s.MaxLatency = d
			}
			first = false
		}
	}
	if count > 0 {
		s.MeanLatency = sum / float64(count)
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d (transit=%d stub=%d domains=%d) edges=%d latency ms min/mean/max = %.1f/%.1f/%.1f",
		s.Nodes, s.TransitNodes, s.StubNodes, s.StubDomains, s.Edges, s.MinLatency, s.MeanLatency, s.MaxLatency)
}
