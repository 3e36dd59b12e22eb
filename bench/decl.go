package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// declaration is BENCHMARK.json: the one place that names the workloads
// and metrics. The benchmark reads it so that what it prints and what
// the file declares cannot drift apart.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// conforms requires res to carry exactly the declared metrics of its
// mode, each with the declared unit and a finite value.
func (d *declaration) conforms(res *result) error {
	want := d.EndToEnd
	if res.Traced {
		want = d.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("%s: metric %s has unit %s, declared %s", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("%s: metric %s is not finite", res.Workload, m.Name)
		}
	}
	for name := range res.Metrics {
		if !declared[name] {
			return fmt.Errorf("%s: metric %s is measured but not declared", res.Workload, name)
		}
	}
	return nil
}
