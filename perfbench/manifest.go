package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is BENCHMARK.json, read from the repository root the
// benchmark runs in.
const manifestPath = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json a run's result must match:
// the names and units of the end-to-end and per-layer metrics.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("reading the metric list: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s lists no end-to-end or no per-layer metrics", path)
	}
	return m, nil
}

// complete checks a run's metrics against the manifest's list for the
// run's kind and makes them the whole list. Every metric put must be
// listed, in its listed unit. An end-to-end metric every workload must
// measure; a per-layer metric of a layer the workload never calls reads
// 0, since the workload spends no time and does no work in it.
func (m manifest) complete(metrics map[string]metric, trace bool) error {
	want, kind := m.EndToEnd, "end-to-end"
	if trace {
		want, kind = m.PerLayer, "per-layer"
	}
	units := make(map[string]string, len(want))
	for _, w := range want {
		units[w.Name] = w.Unit
	}
	for name, got := range metrics {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %s is not a %s metric of %s", name, kind, manifestPath)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s is in %s, %s lists it in %s", name, got.Unit, manifestPath, unit)
		}
	}
	for _, w := range want {
		if _, ok := metrics[w.Name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("end-to-end metric %s was not measured", w.Name)
		}
		metrics[w.Name] = metric{Value: 0, Unit: w.Unit}
	}
	return nil
}
