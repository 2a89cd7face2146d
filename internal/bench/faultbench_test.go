package bench

import (
	"strings"
	"testing"
)

func TestFaultBenchWritesReport(t *testing.T) {
	env, rep, out := runBench[FaultBenchResult](t, "faults", Config{Seed: 11, Points: 800})
	if !strings.Contains(out, "identical") {
		t.Fatalf("labels column missing:\n%s", out)
	}
	if env.Clock != ClockSimulated || !gateNames(env)["labels-identical"] {
		t.Fatalf("envelope clock %q gates %+v", env.Clock, env.Gates)
	}
	if rep.CleanExecutorSeconds <= 0 || len(rep.Runs) != 1 {
		t.Fatalf("bad report: %+v", rep)
	}
	r := rep.Runs[0]
	if !r.LabelsMatch {
		t.Fatalf("faults changed labels: %+v", r)
	}
	if r.ExecutorSeconds <= rep.CleanExecutorSeconds || r.Overhead <= 1 {
		t.Fatalf("faulty run not slower than clean: %+v", r)
	}
	if r.FailedAttempts == 0 || r.RetrySeconds <= 0 {
		t.Fatalf("fault profile never fired: %+v", r)
	}
}
