package sparkdbscan

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate("c10k", 2000)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestClusterMatchesSequential(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	seq, err := ClusterSequential(ds, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.NumClusters != seq.NumClusters || par.NumNoise != seq.NumNoise {
		t.Fatalf("parallel (%d clusters, %d noise) != sequential (%d, %d)",
			par.NumClusters, par.NumNoise, seq.NumClusters, seq.NumNoise)
	}
	// Co-clustering agreement (labels may be permuted).
	mapping := map[int32]int32{}
	for i := range par.Labels {
		pl, sl := par.Labels[i], seq.Labels[i]
		if (pl == Noise) != (sl == Noise) {
			t.Fatalf("point %d: noise disagreement", i)
		}
		if pl == Noise {
			continue
		}
		if prev, ok := mapping[sl]; ok && prev != pl {
			t.Fatalf("point %d: cluster %d mapped to both %d and %d", i, sl, prev, pl)
		}
		mapping[sl] = pl
	}
}

func TestClusterPaperFidelity(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 4, PaperFidelity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 || res.PartialClusters < res.NumClusters {
		t.Fatalf("paper mode: %d clusters from %d partials", res.NumClusters, res.PartialClusters)
	}
}

func TestTimingPopulated(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.Executors <= 0 || tm.TreeBuild <= 0 || tm.Merge <= 0 || tm.ReadTransform <= 0 {
		t.Fatalf("timing gaps: %+v", tm)
	}
	if tm.Total() != tm.Driver()+tm.Executors {
		t.Fatal("Total != Driver + Executors")
	}
}

func TestResultHelpers(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.ClusterSizes()
	if len(sizes) != res.NumClusters {
		t.Fatalf("%d sizes for %d clusters", len(sizes), res.NumClusters)
	}
	total := 0
	for id, sz := range sizes {
		if sz == 0 {
			t.Fatalf("cluster %d empty", id)
		}
		if got := len(res.Members(int32(id))); got != sz {
			t.Fatalf("Members(%d) = %d, size %d", id, got, sz)
		}
		total += sz
	}
	if total+res.NumNoise != ds.Len() {
		t.Fatalf("sizes %d + noise %d != %d", total, res.NumNoise, ds.Len())
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("bogus", 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	for _, name := range []string{"d.txt", "d.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveDataset(ds, path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != ds.Len() || got.Dim != ds.Dim {
			t.Fatalf("%s: shape (%d,%d)", name, got.Len(), got.Dim)
		}
		for i := range ds.Coords {
			if got.Coords[i] != ds.Coords[i] {
				t.Fatalf("%s: coord %d differs", name, i)
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file loaded")
	}
	if _, err := os.Stat("nope.txt"); err == nil {
		t.Fatal("test polluted the working directory")
	}
}

func TestRealTimeMode(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 1, RealTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 {
		t.Fatal("real-time mode found nothing")
	}
	if res.Timing.Executors <= 0 {
		t.Fatal("real-time mode reported no executor time")
	}
}

func TestSuggestEps(t *testing.T) {
	ds := smallDataset(t)
	eps, noiseFrac, err := SuggestEps(ds, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 || noiseFrac < 0 || noiseFrac > 0.5 {
		t.Fatalf("SuggestEps = (%g, %g)", eps, noiseFrac)
	}
	// The suggestion must produce a usable clustering.
	res, err := Cluster(ds, Config{Eps: eps, MinPts: 5, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 {
		t.Fatal("suggested eps found no clusters")
	}
	if _, _, err := SuggestEps(ds, 1, 1); err == nil {
		t.Fatal("minPts=1 accepted")
	}
}

func TestClusterEmptyDataset(t *testing.T) {
	ds := NewDataset(0, 3)
	res, err := Cluster(ds, Config{Eps: 1, MinPts: 2, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.NumNoise != 0 || len(res.Labels) != 0 {
		t.Fatalf("empty dataset produced %+v", res)
	}
}

func TestClusterMorePartitionsThanPoints(t *testing.T) {
	ds, err := Generate("c10k", 50)
	if err != nil {
		t.Fatal(err)
	}
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 8, Partitions: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 50 {
		t.Fatalf("labels %d", len(res.Labels))
	}
}

// TestClusterLeafOrderFacade: the default pair's leaf-order ranges
// leave fewer partial clusters than PaperFidelity's index ranges, and
// its labels equal ClusterSequential's byte for byte, in input order.
func TestClusterLeafOrderFacade(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	seq, err := ClusterSequential(ds, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 8, PaperFidelity: true})
	if err != nil {
		t.Fatal(err)
	}
	if leaf.PartialClusters >= paper.PartialClusters {
		t.Fatalf("leaf-order partials %d not below index-range %d",
			leaf.PartialClusters, paper.PartialClusters)
	}
	if !slices.Equal(leaf.Labels, seq.Labels) {
		t.Fatal("default labels differ from sequential DBSCAN's")
	}
}

func TestInvalidParams(t *testing.T) {
	ds := smallDataset(t)
	if _, err := Cluster(ds, Config{Eps: 0, MinPts: 5}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := ClusterSequential(ds, 25, 0); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Cluster(ds, Config{Eps: eps, MinPts: 5}); err == nil {
			t.Errorf("Cluster accepted eps=%v", eps)
		}
		if _, err := ClusterSequential(ds, eps, 5); err == nil {
			t.Errorf("ClusterSequential accepted eps=%v", eps)
		}
	}
}

// TestClusterKNNRejectsNonFinite: both graph builders refuse a NaN or
// infinite coordinate, so ClusterKNN fails naming the point instead of
// clustering on unordered distances.
func TestClusterKNNRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, algo := range []KNNAlgo{KNNExact, KNNDescent} {
			ds := NewDataset(30, 3)
			for i := range ds.Coords {
				ds.Coords[i] = float64(i % 7)
			}
			ds.At(10)[1] = bad
			res, err := ClusterKNN(ds, KNNConfig{Eps: 2, MinPts: 3, K: 4, Algo: algo, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), "point 10") {
				t.Errorf("%v with coordinate %v: result %v, error %v; want an error naming point 10", algo, bad, res != nil, err)
			}
		}
	}
}

// TestEntryPointsRejectNonFinite: every other entry point that takes a
// whole dataset refuses a NaN or infinite coordinate and names the
// point, instead of clustering on unordered distances. Each also
// refuses a NaN eps and minPts 0.
func TestEntryPointsRejectNonFinite(t *testing.T) {
	entries := []struct {
		name string
		run  func(ds *Dataset, eps float64, minPts int) error
	}{
		{"Cluster", func(ds *Dataset, eps float64, minPts int) error {
			_, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 4})
			return err
		}},
		{"ClusterSequential", func(ds *Dataset, eps float64, minPts int) error {
			_, err := ClusterSequential(ds, eps, minPts)
			return err
		}},
		{"NewLiveModel", func(ds *Dataset, eps float64, minPts int) error {
			_, err := NewLiveModel(ds, &Result{Labels: make([]int32, ds.Len())}, eps, minPts, LiveOptions{})
			return err
		}},
	}
	// 20 grid points, then (x, 1).
	grid := func(x float64) *Dataset {
		ds := NewDataset(21, 2)
		for i := range ds.Coords {
			ds.Coords[i] = float64(i % 7)
		}
		ds.At(20)[0] = x
		return ds
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if err := e.run(grid(bad), 2, 3); err == nil || !strings.Contains(err.Error(), "point 20") {
					t.Errorf("coordinate %v: error %v; want one naming point 20", bad, err)
				}
			}
			if err := e.run(grid(3), math.NaN(), 3); err == nil || !strings.Contains(err.Error(), "eps") {
				t.Errorf("eps NaN: error %v; want one naming eps", err)
			}
			if err := e.run(grid(3), 2, 0); err == nil || !strings.Contains(err.Error(), "minPts") {
				t.Errorf("minPts 0: error %v; want one naming minPts", err)
			}
		})
	}
}

func TestLabelOf(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Labels {
		if got := res.LabelOf(int32(i)); got != want {
			t.Fatalf("LabelOf(%d) = %d, want %d", i, got, want)
		}
	}
	if res.LabelOf(-1) != Noise || res.LabelOf(int32(ds.Len())) != Noise {
		t.Fatal("out-of-range index not Noise")
	}
}

func TestFreezeAndServe(t *testing.T) {
	ds := smallDataset(t)
	eps, minPts := TableIParams()
	res, err := Cluster(ds, Config{Eps: eps, MinPts: minPts, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Freeze(ds, nil, eps, minPts); err == nil {
		t.Fatal("nil result accepted")
	}
	model, err := Freeze(ds, res, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	if model.NumPoints() != ds.Len() || model.NumClusters() != res.NumClusters {
		t.Fatalf("model %d points %d clusters, result %d/%d",
			model.NumPoints(), model.NumClusters(), ds.Len(), res.NumClusters)
	}
	srv := NewServer(model, ServeOptions{Workers: 2})
	defer srv.Close()
	// Core points served back must keep their offline label.
	checked := 0
	for i := 0; i < ds.Len() && checked < 50; i++ {
		a, err := srv.Assign(context.Background(), ds.At(int32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if a.Core {
			if a.Cluster != res.LabelOf(int32(i)) {
				t.Fatalf("core point %d served label %d, offline %d", i, a.Cluster, res.LabelOf(int32(i)))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no core points checked")
	}
	var st ServeStats = srv.Stats()
	if st.Completed == 0 || st.Generation != 1 {
		t.Fatalf("stats %+v", st)
	}
}
