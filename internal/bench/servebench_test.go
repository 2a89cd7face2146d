package bench

import (
	"strings"
	"testing"
)

func TestServeBenchWritesReport(t *testing.T) {
	env, rep, out := runBench[ServeBenchResult](t, "serve", Config{Points: 2000, Smoke: true})
	if !strings.Contains(out, "closed") || !strings.Contains(out, "open") {
		t.Fatalf("table output missing arms:\n%s", out)
	}
	if env.Clock != ClockWall {
		t.Fatalf("serve bench clock %q", env.Clock)
	}
	if !rep.Smoke || rep.Points != 2000 || rep.NumClusters == 0 || rep.NumCore == 0 {
		t.Fatalf("implausible report header: %+v", rep)
	}
	// Smoke sweeps workers {1, 4} × batch {1, 32}.
	if len(rep.Closed) != 4 {
		t.Fatalf("want 4 closed-loop cells, got %d", len(rep.Closed))
	}
	for _, c := range rep.Closed {
		if c.Completed == 0 || c.QPS <= 0 || c.MeanBatch < 1 {
			t.Fatalf("empty closed-loop cell: %+v", c)
		}
		if c.BatchCap == 1 && c.SpeedupVsUnbatched != 1 {
			t.Fatalf("unbatched cell not its own baseline: %+v", c)
		}
		if c.BatchCap > 1 && c.SpeedupVsUnbatched <= 0 {
			t.Fatalf("batched cell missing speedup: %+v", c)
		}
	}
	if len(rep.Open) != 2 {
		t.Fatalf("want 2 open-loop cells, got %d", len(rep.Open))
	}
	for _, c := range rep.Open {
		if c.TargetQPS <= 0 || c.Issued == 0 {
			t.Fatalf("empty open-loop cell: %+v", c)
		}
	}
}
