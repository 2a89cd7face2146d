package main

import "testing"

func testManifest() manifest {
	return manifest{
		EndToEnd: []manifestMetric{{"setup_s", "s"}, {"job_s", "s"}},
		PerLayer: []manifestMetric{{"kdtree.build_s", "s"}, {"core.partials", "count"}},
	}
}

func TestCompleteFillsLayersTheWorkloadNeverCalls(t *testing.T) {
	got := map[string]metric{"kdtree.build_s": {0.25, "s"}}
	if err := testManifest().complete(got, true); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["core.partials"] != (metric{0, "count"}) || got["kdtree.build_s"].Value != 0.25 {
		t.Errorf("completed per-layer metrics = %v", got)
	}
}

func TestCompleteRefusesMissingEndToEndMetric(t *testing.T) {
	if err := testManifest().complete(map[string]metric{"setup_s": {1, "s"}}, false); err == nil {
		t.Error("job_s was not measured; want an error")
	}
}

func TestCompleteRefusesUnlistedOrMisunitedMetric(t *testing.T) {
	for _, got := range []map[string]metric{
		{"setup_s": {1, "s"}, "job_s": {1, "s"}, "read_qps": {1, "1/s"}},
		{"setup_s": {1, "s"}, "job_s": {1000, "ms"}},
	} {
		if err := testManifest().complete(got, false); err == nil {
			t.Errorf("complete(%v) = nil, want an error", got)
		}
	}
}
