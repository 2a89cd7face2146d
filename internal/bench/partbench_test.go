package bench

import (
	"strings"
	"testing"
)

func TestPartBenchWritesReport(t *testing.T) {
	env, rep, out := runBench[PartBenchResult](t, "partition", Config{Smoke: true})
	if !strings.Contains(out, "identical") {
		t.Fatalf("labels line missing:\n%s", out)
	}
	if !gateNames(env)["labels-identical"] {
		t.Fatalf("labels gate missing: %+v", env.Gates)
	}
	if !rep.LabelsMatch {
		t.Fatal("cell mode changed the labels")
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("want 1 measured + 3 projected rows, got %d", len(rep.Rows))
	}
	base := rep.Rows[0]
	if base.Projected {
		t.Fatal("first row must be the measured run")
	}
	// The whole point: the cell arm's per-executor broadcast is tiny
	// next to range's full dataset + tree payload, and the shuffle lines
	// exist only under cell.
	if base.Cell.BroadcastBytes*10 >= base.Range.BroadcastBytes {
		t.Fatalf("cell broadcast %d not an order below range %d",
			base.Cell.BroadcastBytes, base.Range.BroadcastBytes)
	}
	if base.Range.ShuffleBytes != 0 || base.Range.HaloPoints != 0 {
		t.Fatalf("range arm charged shuffle lines: %+v", base.Range)
	}
	if base.Cell.ShuffleBytes == 0 || base.Cell.HaloPoints == 0 {
		t.Fatalf("cell arm shows no shuffle: %+v", base.Cell)
	}
	for i, row := range rep.Rows[1:] {
		if !row.Projected {
			t.Fatalf("row at %d points not marked projected", row.Points)
		}
		// Projections model scale-out: the core count must grow with n.
		if prev := rep.Rows[i]; row.Cores <= prev.Cores {
			t.Fatalf("cores must grow with points: %d points on %d cores after %d on %d",
				row.Points, row.Cores, prev.Points, prev.Cores)
		}
		// Broadcast scales with n in both arms, but range carries the
		// dataset while cell carries only the O(cells) plan.
		if row.Cell.BroadcastBytes*100 >= row.Range.BroadcastBytes {
			t.Fatalf("at %d points cell broadcast %d not two orders below range %d",
				row.Points, row.Cell.BroadcastBytes, row.Range.BroadcastBytes)
		}
	}
	// Acceptance criterion: at >= 10M points cell mode's makespan is no
	// worse than range mode's — the per-executor broadcast
	// deserialization has outgrown the shuffle.
	for _, row := range rep.Rows[2:] {
		if row.Cell.Makespan > row.Range.Makespan {
			t.Fatalf("at %d points cell makespan %.1fs worse than range %.1fs",
				row.Points, row.Cell.Makespan, row.Range.Makespan)
		}
	}
}
