package bench

import (
	"strings"
	"testing"
)

func TestStorageBenchWritesReport(t *testing.T) {
	env, rep, out := runBench[StorageBenchResult](t, "storage", Config{Seed: 11, Points: 800})
	if !strings.Contains(out, "identical") {
		t.Fatalf("labels column missing:\n%s", out)
	}
	if env.Clock != ClockSimulated || !gateNames(env)["labels-identical"] {
		t.Fatalf("envelope clock %q gates %+v", env.Clock, env.Gates)
	}
	if rep.CleanTotalSeconds <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	// journal + (faults, faults+crash) for the one seed.
	if len(rep.Pipeline) != 3 {
		t.Fatalf("want 3 pipeline arms, got %d", len(rep.Pipeline))
	}
	for _, r := range rep.Pipeline {
		if !r.LabelsMatch {
			t.Fatalf("arm %q changed labels", r.Name)
		}
		if r.TotalSeconds <= rep.CleanTotalSeconds {
			t.Fatalf("arm %q not slower than clean: %+v", r.Name, r)
		}
		if r.JournaledClusters == 0 {
			t.Fatalf("arm %q journaled nothing", r.Name)
		}
	}
	faulty := rep.Pipeline[1]
	if faulty.ChecksumFailures == 0 && faulty.DeadNodeProbes == 0 {
		t.Fatalf("storage profile never fired: %+v", faulty)
	}
	crash := rep.Pipeline[2]
	if crash.DriverCrashes != 1 {
		t.Fatalf("crash arm survived no crash: %+v", crash)
	}
	// Section B: four arms; under faults, checkpointed recovery must be
	// cheaper than lineage recomputation.
	if len(rep.Checkpoint) != 4 {
		t.Fatalf("want 4 checkpoint arms, got %d", len(rep.Checkpoint))
	}
	byArm := map[string]CheckpointBenchRun{}
	for _, r := range rep.Checkpoint {
		byArm[r.Arm] = r
	}
	lf, cf := byArm["lineage faulty"], byArm["checkpoint faulty"]
	if lf.FailedAttempts == 0 || cf.FailedAttempts == 0 {
		t.Fatalf("fail profile never fired: lineage %+v, checkpoint %+v", lf, cf)
	}
	if cf.TotalSeconds >= lf.TotalSeconds {
		t.Fatalf("checkpointed recovery (%.3f s) not cheaper than lineage replay (%.3f s)",
			cf.TotalSeconds, lf.TotalSeconds)
	}
}
