package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// chaosBenchSeed lets the CI chaos matrix point the smoke bench at its
// seed; the default is the chaos bench's own.
func chaosBenchSeed(t *testing.T) uint64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 53
	}
	s, err := strconv.ParseUint(env, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
	}
	return s
}

// TestChaosBenchSmoke runs the full arm set in the smoke configuration
// and checks the report invariants: every gated arm passed (RunBenches
// errors otherwise), every arm's books balance, the clean arm is
// fault-free, and the schedule digest is reproducible.
func TestChaosBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos bench needs a few hundred ms per arm")
	}
	seed := chaosBenchSeed(t)
	env, rep, _ := runBench[ChaosBenchResult](t, "chaos", Config{Seed: seed, Smoke: true})
	if rep.Seed != seed || !strings.HasPrefix(rep.ScheduleDigest, "fnv1a:") {
		t.Fatalf("seed %d digest %q", rep.Seed, rep.ScheduleDigest)
	}
	gates := gateNames(env)
	for _, want := range []string{"worker-kill", "worker-stall", "slow-hedge", "drop-hedge", "brownout-high"} {
		if !gates[want] {
			t.Errorf("gate %q missing from the report", want)
		}
	}
	names := map[string]bool{}
	for _, a := range rep.Arms {
		names[a.Name] = true
		if a.Issued == 0 {
			t.Errorf("arm %s issued nothing", a.Name)
		}
	}
	for _, want := range []string{
		"clean", "worker-kill", "worker-kill-nosup", "worker-stall",
		"slow-nohedge", "slow-hedge", "drop-hedge", "brownout-low", "brownout-high",
	} {
		if !names[want] {
			t.Errorf("arm %q missing from the report", want)
		}
	}
	for _, a := range rep.Arms {
		if a.Name == "clean" && (a.WorkerDeaths != 0 || a.Panicked != 0 || a.Dropped != 0) {
			t.Errorf("clean arm saw faults: %+v", a)
		}
	}

	// Determinism artifact: the same seed renders the same digest.
	_, rep2, _ := runBench[ChaosBenchResult](t, "chaos", Config{Seed: seed, Smoke: true})
	if rep2.ScheduleDigest != rep.ScheduleDigest {
		t.Errorf("schedule digest moved across runs: %s vs %s", rep.ScheduleDigest, rep2.ScheduleDigest)
	}
}
