package main

import (
	"encoding/json"

	"adaptivegossip/bench/e2e"
)

// The shape of BENCHMARK.json at the root of the repository. The file
// is generated from the catalog and the workload list
// (go test -run TestBenchmarkJSON -update), and the test fails when the
// two drift apart.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func benchmarkJSON() ([]byte, error) {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: DefaultSeconds,
	}
	for _, w := range e2e.Workloads() {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		if s.Contract {
			bound := s.contractBound()
			c.EndToEnd = append(c.EndToEnd, contractMetric{s.Name, s.Unit, s.Better, &bound})
		}
	}
	for _, s := range contractPerLayer() {
		c.PerLayer = append(c.PerLayer, contractMetric{s.Name, s.Unit, s.Better, nil})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	return append(out, '\n'), err
}
