package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// sets the runs report in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) map[string]metric {
		m := map[string]metric{}
		for _, x := range xs {
			m[x.Name] = metric{}
		}
		return m
	}
	if err := checkMetricSet(names(spec.EndToEnd), e2eMetrics); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
	if err := checkMetricSet(names(spec.PerLayer), perLayerMetrics); err != nil {
		t.Errorf("per_layer: %v", err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}
