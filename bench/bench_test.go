package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func smoke(t *testing.T, workload string, trace bool) *fullResult {
	t.Helper()
	fr, err := runWorkload(runConfig{workload: workload, seed: defaultSeed, seconds: referenceSeconds,
		trace: trace, smoke: true, outDir: t.TempDir()}, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return fr
}

// Every workload runs at smoke scale, prints exactly the listed metrics
// with finite values, passes its own output checks, and repeats its
// simulated statistics exactly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, b := smoke(t, def.name, false), smoke(t, def.name, false)
			if !a.Correct {
				t.Fatalf("output checks failed: %v", a.Failures)
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics emitted, %d listed", len(a.Metrics), len(endToEnd))
			}
			for _, spec := range endToEnd {
				v, ok := a.Metrics[spec.Name]
				if !ok {
					t.Fatalf("metric %s not emitted", spec.Name)
				}
				if !finite(v.Value) || v.Value == 0 {
					t.Errorf("metric %s = %v: end-to-end metrics are finite and never zero", spec.Name, v.Value)
				}
				if v.Unit != spec.Unit {
					t.Errorf("metric %s has unit %q, listed %q", spec.Name, v.Unit, spec.Unit)
				}
				if spec.Kind == kindS && v.Value != b.Metrics[spec.Name].Value {
					t.Errorf("simulated metric %s differs between two runs of one seed: %v vs %v", spec.Name, v.Value, b.Metrics[spec.Name].Value)
				}
			}
			if a.DetFingerprint != b.DetFingerprint {
				t.Errorf("det_fingerprint differs between two runs of one seed: %s vs %s", a.DetFingerprint, b.DetFingerprint)
			}
		})
	}
}

// The traced pass prints every per-layer metric once, finite, and its
// per-layer self times add up to the traced run's wall time.
func TestTracedSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			fr := smoke(t, def.name, true)
			if !fr.Correct {
				t.Fatalf("output checks failed: %v", fr.Failures)
			}
			if len(fr.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics emitted, %d listed", len(fr.Metrics), len(perLayer))
			}
			var self float64
			for _, spec := range perLayer {
				v, ok := fr.Metrics[spec.Name]
				if !ok || !finite(v.Value) {
					t.Errorf("metric %s missing or not finite: %v", spec.Name, v.Value)
				}
				if strings.HasPrefix(spec.Name, "self_s.") {
					self += v.Value
				}
			}
			if self <= 0 || self > fr.WallS || self < 0.95*fr.WallS-0.05 {
				t.Errorf("self times sum to %.3f s of a %.3f s run", self, fr.WallS)
			}
		})
	}
}

// A wrong reference must be noticed: the check compares against the
// optimization of a different query and the run reports failures.
func TestWrongReferenceFails(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	fr := smoke(t, "opt_cold_dht", false)
	if fr.Failed == 0 || fr.Correct {
		t.Fatalf("corrupted reference went unnoticed: %d failed of %d", fr.Failed, fr.Attempted)
	}
}

// Metric names are used once, and BENCHMARK.json says what the code
// says.
func TestManifestsMatchCode(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range allSpecs() {
		if seen[spec.Name] {
			t.Errorf("metric name %s used twice", spec.Name)
		}
		seen[spec.Name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) || len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d, %d",
			len(manifest.Workloads), len(manifest.EndToEnd), len(manifest.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, def := range workloads {
		if m := manifest.Workloads[i]; m.Name != def.name || m.Why != def.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the code's is %q", i, m.Name, def.name)
		}
	}
	for i, spec := range endToEnd {
		if m := manifest.EndToEnd[i]; m.Name != spec.Name || m.Unit != spec.Unit || m.Better != spec.Better || m.Bound != spec.Bound {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %+v, the code's is %+v", i, m, spec)
		}
	}
	for i, spec := range perLayer {
		if m := manifest.PerLayer[i]; m.Name != spec.Name || m.Unit != spec.Unit || m.Better != spec.Better {
			t.Errorf("BENCHMARK.json per-layer metric %d is %+v, the code's is %+v", i, m, spec)
		}
	}
}
