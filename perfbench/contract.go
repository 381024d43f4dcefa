package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the benchmark's definition at the checkout root. The
// program reports exactly the metrics it lists, with the units it gives.
const benchmarkFile = "BENCHMARK.json"

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// reconcile checks the run's metrics against the contract's list. Every
// listed end-to-end metric must have been measured. A per-layer metric
// of a layer the workload does not run is reported as 0. A metric the
// contract does not list, or one with another unit, is a benchmark bug
// and fails the run.
func reconcile(list []contractMetric, got map[string]metric, zeroMissing bool) []string {
	var errs []string
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok && zeroMissing:
			got[m.Name] = metric{0, m.Unit}
		case !ok:
			errs = append(errs, fmt.Sprintf("metric %s was not measured", m.Name))
		case v.Unit != m.Unit:
			errs = append(errs, fmt.Sprintf("metric %s has unit %s, %s lists %s", m.Name, v.Unit, benchmarkFile, m.Unit))
		}
	}
	var extra []string
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		errs = append(errs, fmt.Sprintf("metric %s is not listed in %s", name, benchmarkFile))
	}
	return errs
}
