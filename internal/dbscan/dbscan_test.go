package dbscan

import (
	"math"
	"strings"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// grid2 builds a 2-d dataset from (x, y) pairs.
func grid2(pts [][2]float64) *geom.Dataset {
	ds := geom.NewDataset(len(pts), 2)
	for i, p := range pts {
		ds.Set(int32(i), []float64{p[0], p[1]})
	}
	return ds
}

func runBoth(t *testing.T, ds *geom.Dataset, p Params) *Result {
	t.Helper()
	resTree, err := Run(ds, kdtree.Build(ds), p)
	if err != nil {
		t.Fatal(err)
	}
	resBF, err := Run(ds, kdtree.NewBruteForce(ds), p)
	if err != nil {
		t.Fatal(err)
	}
	// Index choice must not change the result (same visit order).
	for i := range resTree.Labels {
		if resTree.Labels[i] != resBF.Labels[i] {
			t.Fatalf("point %d: tree label %d != brute label %d", i, resTree.Labels[i], resBF.Labels[i])
		}
	}
	return resTree
}

func TestTwoClustersAndNoise(t *testing.T) {
	// Two tight groups of 4 and one isolated point.
	ds := grid2([][2]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, // cluster A
		{100, 100}, {101, 100}, {100, 101}, {101, 101}, // cluster B
		{50, 50}, // noise
	})
	res := runBoth(t, ds, Params{Eps: 2, MinPts: 3})
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	if res.NumNoise != 1 || res.Labels[8] != Noise {
		t.Fatalf("noise wrong: count=%d label=%d", res.NumNoise, res.Labels[8])
	}
	for i := 1; i < 4; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("cluster A split: labels %v", res.Labels[:4])
		}
	}
	for i := 5; i < 8; i++ {
		if res.Labels[i] != res.Labels[4] {
			t.Fatalf("cluster B split: labels %v", res.Labels[4:8])
		}
	}
	if res.Labels[0] == res.Labels[4] {
		t.Fatal("clusters A and B merged")
	}
}

func TestAllNoise(t *testing.T) {
	ds := grid2([][2]float64{{0, 0}, {10, 10}, {20, 20}, {30, 30}})
	res := runBoth(t, ds, Params{Eps: 1, MinPts: 2})
	if res.NumClusters != 0 || res.NumNoise != 4 {
		t.Fatalf("clusters=%d noise=%d", res.NumClusters, res.NumNoise)
	}
}

func TestSingleCluster(t *testing.T) {
	ds := grid2([][2]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}})
	res := runBoth(t, ds, Params{Eps: 1.5, MinPts: 2})
	if res.NumClusters != 1 || res.NumNoise != 0 {
		t.Fatalf("clusters=%d noise=%d", res.NumClusters, res.NumNoise)
	}
}

func TestChainIsDensityReachable(t *testing.T) {
	// A chain of points each within eps of the next: all one cluster
	// through transitive density-reachability.
	pts := make([][2]float64, 50)
	for i := range pts {
		pts[i] = [2]float64{float64(i), 0}
	}
	ds := grid2(pts)
	res := runBoth(t, ds, Params{Eps: 1.5, MinPts: 3})
	if res.NumClusters != 1 {
		t.Fatalf("chain split into %d clusters", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Fatalf("chain point %d has label %d", i, l)
		}
	}
}

func TestBorderPointAdoption(t *testing.T) {
	// Dense core of 5 points at origin plus one border point within
	// eps of the core but itself non-core.
	ds := grid2([][2]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {0.05, 0.05}, // core blob
		{1.05, 0}, // border: within eps=1 of two blob points only (3 nbrs < minPts)
	})
	res := runBoth(t, ds, Params{Eps: 1, MinPts: 5})
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d", res.NumClusters)
	}
	if res.Labels[5] != res.Labels[0] {
		t.Fatal("border point not adopted")
	}
	if res.Core[5] {
		t.Fatal("border point marked core")
	}
	for i := 0; i < 5; i++ {
		if !res.Core[i] {
			t.Fatalf("blob point %d not core", i)
		}
	}
}

func TestNoiseBecomesBorder(t *testing.T) {
	// Visit order matters: point 0 is processed first, found non-core
	// (only 2 neighbours incl. itself), provisionally noise, then
	// adopted by the cluster that expands from the dense blob.
	ds := grid2([][2]float64{
		{-0.95, 0}, // non-core, adjacent to blob
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {0.05, 0.05},
	})
	res := runBoth(t, ds, Params{Eps: 1, MinPts: 5})
	if res.Labels[0] == Noise {
		t.Fatal("provisional noise was not adopted as border")
	}
	if res.NumNoise != 0 {
		t.Fatalf("NumNoise = %d", res.NumNoise)
	}
}

func TestMinPtsOne(t *testing.T) {
	// minPts=1: every point is core; isolated points become singleton
	// clusters, not noise.
	ds := grid2([][2]float64{{0, 0}, {100, 100}})
	res := runBoth(t, ds, Params{Eps: 1, MinPts: 1})
	if res.NumClusters != 2 || res.NumNoise != 0 {
		t.Fatalf("clusters=%d noise=%d", res.NumClusters, res.NumNoise)
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := geom.NewDataset(0, 2)
	res, err := Run(ds, kdtree.Build(ds), Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.NumNoise != 0 || len(res.Labels) != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestParamValidation: eps must be a positive finite number, minPts at
// least 1, and every coordinate finite; Run names the first bad point.
// Check, which callers run before building an index, gives Run's error.
func TestParamValidation(t *testing.T) {
	ds := grid2([][2]float64{{0, 0}})
	for _, p := range []Params{
		{Eps: 0, MinPts: 2},
		{Eps: math.NaN(), MinPts: 2},
		{Eps: math.Inf(1), MinPts: 2},
		{Eps: math.Inf(-1), MinPts: 2},
		{Eps: 1, MinPts: 0},
	} {
		_, err := Run(ds, kdtree.Build(ds), p)
		if err == nil {
			t.Errorf("%+v accepted", p)
		} else if cerr := Check(ds, p); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%+v: Check gives %v, Run %v", p, cerr, err)
		}
	}
	bad := grid2([][2]float64{{0, 0}, {0, 1}, {math.NaN(), 1}})
	if _, err := Run(bad, kdtree.Build(bad), Params{Eps: 1, MinPts: 2}); err == nil || !strings.Contains(err.Error(), "point 2") {
		t.Errorf("NaN coordinate: error %v, want one naming point 2", err)
	}
	if err := Check(bad, Params{Eps: 1, MinPts: 2}); err == nil || !strings.Contains(err.Error(), "point 2") {
		t.Errorf("NaN coordinate: Check gives %v, want one naming point 2", err)
	}
	if err := Check(ds, Params{Eps: 1, MinPts: 1}); err != nil {
		t.Errorf("valid input: Check gives %v", err)
	}
}

func TestLabelsAreDense(t *testing.T) {
	r := rng.New(3)
	ds := geom.NewDataset(500, 2)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 200
	}
	res := runBoth(t, ds, Params{Eps: 10, MinPts: 4})
	seen := make(map[int32]bool)
	for _, l := range res.Labels {
		if l != Noise {
			seen[l] = true
		}
	}
	if len(seen) != res.NumClusters {
		t.Fatalf("%d distinct labels, NumClusters=%d", len(seen), res.NumClusters)
	}
	for c := int32(0); c < int32(res.NumClusters); c++ {
		if !seen[c] {
			t.Fatalf("label %d missing (labels not dense)", c)
		}
	}
}

func TestStatsMetered(t *testing.T) {
	ds := grid2([][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}})
	res, err := Run(ds, kdtree.Build(ds), Params{Eps: 2, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The ball covers the whole dataset, and every query still scans
	// the one leaf: nodes, distances and neighbours are all metered.
	if res.Stats.NodesVisited == 0 || res.Stats.DistComps == 0 || res.Stats.Reported == 0 {
		t.Fatalf("stats incomplete: %+v", res.Stats)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	r := rng.New(9)
	ds := geom.NewDataset(300, 3)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 100
	}
	tree := kdtree.Build(ds)
	p := Params{Eps: 12, MinPts: 3}
	a, err := Run(ds, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}
