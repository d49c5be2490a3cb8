package main

import (
	"encoding/json"
	"os"
	"testing"
)

type declaredMetric struct{ Name, Unit string }

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the workloads
// and metrics this program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bench.Workloads), len(workloadOrder))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: declared %s, program %s", i, w.Name, workloadOrder[i])
		}
	}
	for _, c := range []struct {
		what     string
		declared []declaredMetric
		program  []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: declared %d metrics, program reports %d", c.what, len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.program[i].name || d.Unit != c.program[i].unit {
				t.Errorf("%s %d: declared %s [%s], program %s [%s]", c.what, i, d.Name, d.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}
