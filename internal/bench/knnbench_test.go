package bench

import "testing"

// A tiny run of the knn frontier: the accuracy and determinism gates
// must hold even at 800 points, and the smoke artifact must not claim
// the waived speed gate.
func TestKNNBenchSmoke(t *testing.T) {
	env, rep, _ := runBench[KNNBenchResult](t, "knn", Config{Points: 800, Seed: 7, Smoke: true})
	if rep.Points != 800 || rep.Dim != 128 {
		t.Fatalf("unexpected dataset shape: %+v", rep)
	}
	if len(rep.Arms) != 6 {
		t.Fatalf("want exact+nndescent at 3 ks, got %d arms", len(rep.Arms))
	}
	if !rep.LabelsDeterministic {
		t.Fatal("labels depend on the DSU worker count")
	}
	gates := gateNames(env)
	if !rep.Smoke || gates["build-speedup"] {
		t.Fatal("smoke run must waive the full-size speed gate")
	}
	for _, want := range []string{"labels-deterministic", "nmi-exact-graph", "nmi-approx-graph"} {
		if !gates[want] {
			t.Fatalf("gate %q missing: %+v", want, env.Gates)
		}
	}
	// The accuracy gates, as recorded in the artifact.
	if rep.NMIExactAtDefaultK < 0.99 || rep.NMIApproxAtDefaultK < 0.99 {
		t.Fatalf("NMI gate failed at k=%d: exact %.4f, approx %.4f",
			rep.DefaultK, rep.NMIExactAtDefaultK, rep.NMIApproxAtDefaultK)
	}
	for _, arm := range rep.Arms {
		if arm.Algo == "exact" && arm.Recall != 1 {
			t.Fatalf("exact arm recall %.4f, want 1: %+v", arm.Recall, arm)
		}
		if arm.Recall < 0.5 {
			t.Fatalf("implausible recall: %+v", arm)
		}
		if arm.NumClusters != rep.RefClusters {
			t.Fatalf("arm found %d clusters, exact DBSCAN found %d: %+v",
				arm.NumClusters, rep.RefClusters, arm)
		}
	}
}
