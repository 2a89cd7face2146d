package knng

import (
	"bytes"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/quest"
)

// The acceptance bar for exact-graph mode: on a d<=10 reference
// dataset, with k large enough, KNN-DBSCAN must reproduce exact
// DBSCAN — identical core set, equivalent clustering (EquivCheck
// handles the legitimate border ambiguity).
func TestExactGraphModeReproducesExactDBSCAN(t *testing.T) {
	for _, name := range []string{"c10k", "r10k"} {
		t.Run(name, func(t *testing.T) {
			spec, err := quest.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := quest.Generate(spec.Scaled(2000))
			if err != nil {
				t.Fatal(err)
			}
			p := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
			tree := kdtree.Build(ds)
			ref, err := dbscan.Run(ds, tree, p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := BuildExact(ds, 64, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := DBSCAN(g, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Core {
				if res.Core[i] != ref.Core[i] {
					t.Fatalf("core flag of point %d: knn %v, exact %v", i, res.Core[i], ref.Core[i])
				}
			}
			if res.NumClusters != ref.NumClusters {
				t.Fatalf("clusters: knn %d, exact %d", res.NumClusters, ref.NumClusters)
			}
			rep, err := eval.EquivCheck(ds, ref, res.Labels, p, tree)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exact() {
				t.Fatalf("knn labels not equivalent to exact DBSCAN: %v", rep)
			}
			nmi, err := eval.NMI(res.Labels, ref.Labels)
			if err != nil {
				t.Fatal(err)
			}
			if nmi < 0.999 {
				t.Fatalf("NMI vs exact DBSCAN = %g, want ~1", nmi)
			}
		})
	}
}

// Labels must be byte-identical across DSU worker counts (dsu.Concurrent
// unioned inline at 1, in parallel blocks beyond, 0 meaning all host
// cores) and across repeated runs — for both edge rules, on both exact
// and approximate graphs.
func TestLabelsIdenticalAcrossDSUWorkers(t *testing.T) {
	ds := clusteredDataset(t, 1200)
	p := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
	exact, err := BuildExact(ds, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := BuildNNDescent(ds, 16, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{exact, approx} {
		for _, rule := range []EdgeRule{EdgeOneSided, EdgeMutual} {
			var base []byte
			for _, workers := range []int{1, 2, 4, 8, 0} {
				res, err := DBSCAN(g, p, Options{Workers: workers, Edges: rule})
				if err != nil {
					t.Fatal(err)
				}
				lb := int32Bytes(res.Labels)
				if base == nil {
					base = lb
					continue
				}
				if !bytes.Equal(lb, base) {
					t.Fatalf("rule %v: labels differ at %d workers", rule, workers)
				}
			}
		}
	}
}

// A hand-built graph exercising the one-sided vs mutual difference:
// core 2's list reaches core 3 within eps, but 3's list does not
// contain 2 — one-sided joins them, mutual keeps them apart.
func TestEdgeRules(t *testing.T) {
	// 6 points, k=2. Distances chosen so points 0..2 and 3..5 are
	// cores (their first listed neighbour is within eps=1).
	g := &Graph{
		K: 2,
		Idx: []int32{
			1, 2, // 0: mutual pair with 1
			0, 2, // 1
			1, 3, // 2: lists 3 within eps (one-sided edge 2→3)
			4, 5, // 3: does not list 2
			3, 5, // 4
			3, 4, // 5
		},
		Dist: []float64{
			0.5, 0.9,
			0.5, 0.8,
			0.8, 0.95,
			0.5, 0.9,
			0.5, 0.9,
			0.9, 0.9,
		},
	}
	p := dbscan.Params{Eps: 1, MinPts: 2}
	oneSided, err := DBSCAN(g, p, Options{Edges: EdgeOneSided})
	if err != nil {
		t.Fatal(err)
	}
	if oneSided.NumClusters != 1 {
		t.Fatalf("one-sided: %d clusters, want 1 (edge 2→3 joins the halves)", oneSided.NumClusters)
	}
	mutual, err := DBSCAN(g, p, Options{Edges: EdgeMutual})
	if err != nil {
		t.Fatal(err)
	}
	if mutual.NumClusters != 2 {
		t.Fatalf("mutual: %d clusters, want 2 (3 never lists 2 back)", mutual.NumClusters)
	}
	if EdgeOneSided.String() != "one-sided" || EdgeMutual.String() != "mutual" {
		t.Fatalf("unexpected EdgeRule strings: %q, %q", EdgeOneSided, EdgeMutual)
	}
}

// Border and noise semantics on a hand-built graph: a non-core point
// within eps of a core joins that core's cluster; one outside eps of
// every core is noise. KDist mirrors the graph.
func TestBorderAndNoise(t *testing.T) {
	// k=2, eps=1, minPts=3: core iff the 2nd listed distance <= 1.
	g := &Graph{
		K: 2,
		Idx: []int32{
			1, 2, // 0: core
			0, 2, // 1: core
			0, 1, // 2: border (2nd dist > eps), nearest core 0
			0, 1, // 3: noise (everything > eps)
		},
		Dist: []float64{
			0.4, 0.6,
			0.4, 0.7,
			0.9, 1.5,
			5.0, 5.2,
		},
	}
	res, err := DBSCAN(g, dbscan.Params{Eps: 1, MinPts: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Core[0] || !res.Core[1] || res.Core[2] || res.Core[3] {
		t.Fatalf("core flags = %v, want [true true false false]", res.Core)
	}
	if res.NumClusters != 1 || res.NumNoise != 1 {
		t.Fatalf("clusters=%d noise=%d, want 1 and 1", res.NumClusters, res.NumNoise)
	}
	if res.Labels[2] != res.Labels[0] {
		t.Fatalf("border point 2 labeled %d, want cluster of core 0 (%d)", res.Labels[2], res.Labels[0])
	}
	if res.Labels[3] != dbscan.Noise {
		t.Fatalf("point 3 labeled %d, want noise", res.Labels[3])
	}
	if res.KDist[0] != 0.6 || res.KDist[3] != 5.2 {
		t.Fatalf("KDist = %v, want the 2nd listed distances", res.KDist)
	}
}

func TestDBSCANValidation(t *testing.T) {
	g := &Graph{K: 2, Idx: make([]int32, 8), Dist: make([]float64, 8)}
	if _, err := DBSCAN(g, dbscan.Params{Eps: 0, MinPts: 2}, Options{}); err == nil {
		t.Fatal("eps=0 should fail")
	}
	if _, err := DBSCAN(g, dbscan.Params{Eps: 1, MinPts: 4}, Options{}); err == nil {
		t.Fatal("minPts > k+1 should fail")
	}
}

// End-to-end determinism: the full approximate pipeline (NN-descent +
// DBSCAN) is byte-identical per seed across runs and worker counts.
func TestApproximatePipelineDeterministic(t *testing.T) {
	ds := clusteredDataset(t, 900)
	p := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
	for _, seed := range testSeeds(t) {
		var base []byte
		for _, workers := range []int{1, 3, 6} {
			g, err := BuildNNDescent(ds, 12, ApproxOptions{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := DBSCAN(g, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			lb := int32Bytes(res.Labels)
			if base == nil {
				base = lb
				continue
			}
			if !bytes.Equal(lb, base) {
				t.Fatalf("seed %d: pipeline labels differ at %d workers", seed, workers)
			}
		}
	}
}
