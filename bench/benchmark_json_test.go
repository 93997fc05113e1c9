package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json — the
// benchmark's command, workloads, and metrics with their bounds — in step
// with the workloads and metrics defined here.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Command) != 2 || spec.Command[0] != "bash" || spec.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", spec.Command)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, code has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d = %+v, code has %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound %v, code has %v", kind, m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
