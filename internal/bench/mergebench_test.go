package bench

import "testing"

func TestMergeBenchSmoke(t *testing.T) {
	env, rep, _ := runBench[MergeBenchResult](t, "merge", Config{Smoke: true})
	gates := gateNames(env)
	for _, want := range []string{"labels-identical", "work-identical", "speedup-at-8", "critical-path-share"} {
		if !gates[want] {
			t.Fatalf("gate %q missing: %+v", want, env.Gates)
		}
	}
	if !rep.LabelsIdentical || !rep.WorkIdentical {
		t.Fatalf("parallel merge is not semantically identical: %+v", rep)
	}
	// The acceptance gate, as recorded in the artifact.
	if rep.SpeedupAt8 < 2 {
		t.Fatalf("simulated speedup at 8 workers %.2fx < 2x", rep.SpeedupAt8)
	}
	if len(rep.Arms) != 4 {
		t.Fatalf("want 1/2/4/8-worker arms, got %d", len(rep.Arms))
	}
	// Sim seconds must fall monotonically with workers while the
	// clustering stays fixed.
	for i := 1; i < len(rep.Arms); i++ {
		if rep.Arms[i].SimSeconds >= rep.Arms[i-1].SimSeconds {
			t.Fatalf("sim seconds not monotone: %+v", rep.Arms)
		}
		if rep.Arms[i].NumClusters != rep.Arms[0].NumClusters {
			t.Fatalf("cluster count moved across arms: %+v", rep.Arms)
		}
	}
	if len(rep.Pipeline) != 2 {
		t.Fatalf("want 1- and 8-worker pipeline runs, got %d", len(rep.Pipeline))
	}
	seq, par := rep.Pipeline[0], rep.Pipeline[1]
	if par.MergeShare >= seq.MergeShare || par.MergeShare >= 0.9 {
		t.Fatalf("critical-path merge share did not shrink: seq %.3f, par %.3f",
			seq.MergeShare, par.MergeShare)
	}
	if par.MergeSeconds >= seq.MergeSeconds {
		t.Fatalf("parallel merge phase %.3fs not faster than one worker %.3fs",
			par.MergeSeconds, seq.MergeSeconds)
	}
}

// TestSynthPartialsContract pins the SeedExact invariants the synthetic
// workload promises the canonical merge: disjoint members with the
// lowest core first, and every seed a member of some other partial.
func TestSynthPartialsContract(t *testing.T) {
	partials, n := synthPartials(99, 3, 5)
	owner := make(map[int32]bool, n)
	memberOf := make(map[int32]int, n)
	for ci, pc := range partials {
		if len(pc.Members) == 0 {
			t.Fatalf("partial %d has no members", ci)
		}
		for j, pt := range pc.Members {
			if owner[pt] {
				t.Fatalf("point %d owned twice", pt)
			}
			owner[pt] = true
			memberOf[pt] = ci
			if pc.Members[0] > pt && j > 0 {
				t.Fatalf("partial %d: Members[0] is not the minimum", ci)
			}
		}
	}
	for ci, pc := range partials {
		for _, s := range pc.Seeds {
			mi, ok := memberOf[s]
			if !ok {
				t.Fatalf("partial %d seed %d is not a member anywhere", ci, s)
			}
			if mi == ci {
				t.Fatalf("partial %d seeds its own member %d", ci, s)
			}
		}
		for _, b := range pc.Borders {
			if owner[b] {
				t.Fatalf("partial %d border %d is a core member", ci, b)
			}
			if int(b) >= n {
				t.Fatalf("border %d out of range %d", b, n)
			}
		}
	}
}
