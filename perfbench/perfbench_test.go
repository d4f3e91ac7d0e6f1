package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json's metric lists.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestMetricSetsMatchBenchmarkFile pins the metric names and units the
// runs report to the ones BENCHMARK.json declares, and its workloads to
// the ones the command accepts.
func TestMetricSetsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit, Better string }, reported map[string]string) {
		seen := map[string]bool{}
		for _, m := range declared {
			seen[m.Name] = true
			if unit, ok := reported[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s) is not reported with that unit (got %q, %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
		for _, name := range sortedNames(reported) {
			if !seen[name] {
				t.Errorf("%s metric %s is reported but not declared", kind, name)
			}
		}
	}
	compare("end-to-end", bf.EndToEnd, endToEndMetrics)
	compare("per-layer", bf.PerLayer, perLayerMetrics())
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestShortMode runs every workload end to end, untraced and traced, at
// tiny sizes with all of its output checks.
func TestShortMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedNames(workloads) {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 0, trace: trace, short: true, out: t.TempDir(), workers: 2}
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics()
				}
				out.checks.metricSet(out.metrics, want)
				if !out.checks.ok() {
					t.Errorf("checks failed: %v", out.checks.errs)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				if len(out.checks.passed()) < 5 {
					t.Errorf("only checks %v ran", out.checks.passed())
				}
			})
		}
	}
}
