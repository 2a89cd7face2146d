package pdsdbscan

import (
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/quest"
)

var tableParams = dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}

func questData(t *testing.T, name string, n int) *geom.Dataset {
	t.Helper()
	spec, err := quest.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := quest.Generate(spec.Scaled(n))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMatchesSequentialAcrossWorkerCounts(t *testing.T) {
	for _, name := range []string{"c10k", "r10k"} {
		ds := questData(t, name, 2500)
		tree := kdtree.Build(ds)
		ref, err := dbscan.Run(ds, tree, tableParams)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Run(ds, tree, Config{Params: tableParams, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eval.EquivCheck(ds, ref, res.Labels, tableParams, tree)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exact() {
				t.Fatalf("%s workers=%d: %v", name, workers, rep)
			}
			if res.NumClusters != ref.NumClusters || res.NumNoise != ref.NumNoise {
				t.Fatalf("%s workers=%d: %d/%d vs sequential %d/%d",
					name, workers, res.NumClusters, res.NumNoise, ref.NumClusters, ref.NumNoise)
			}
			// Core flags identical to sequential by definition.
			for i := range ref.Core {
				if res.Core[i] != ref.Core[i] {
					t.Fatalf("%s workers=%d: core flag %d differs", name, workers, i)
				}
			}
		}
	}
}

func TestDeterministicClusterStructure(t *testing.T) {
	// Border assignment may race between runs, but the core
	// co-clustering (and so cluster/noise counts) must be stable.
	ds := questData(t, "r10k", 2000)
	tree := kdtree.Build(ds)
	a, err := Run(ds, tree, Config{Params: tableParams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, tree, Config{Params: tableParams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters != b.NumClusters || a.NumNoise != b.NumNoise {
		t.Fatalf("unstable structure: %d/%d vs %d/%d",
			a.NumClusters, a.NumNoise, b.NumClusters, b.NumNoise)
	}
	ri, err := eval.RandIndex(a.Labels, b.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ri < 0.999 {
		t.Fatalf("runs diverge: RI %.4f", ri)
	}
}

func TestSmallGeometry(t *testing.T) {
	pts := [][2]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{100, 100}, {101, 100}, {100, 101}, {101, 101},
		{50, 50},
	}
	ds := geom.NewDataset(len(pts), 2)
	for i, p := range pts {
		ds.Set(int32(i), []float64{p[0], p[1]})
	}
	tree := kdtree.Build(ds)
	res, err := Run(ds, tree, Config{Params: dbscan.Params{Eps: 2, MinPts: 3}, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 || res.NumNoise != 1 {
		t.Fatalf("clusters=%d noise=%d", res.NumClusters, res.NumNoise)
	}
}

func TestEmptyAndValidation(t *testing.T) {
	ds := geom.NewDataset(0, 2)
	tree := kdtree.Build(ds)
	res, err := Run(ds, tree, Config{Params: dbscan.Params{Eps: 1, MinPts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Fatal("clusters in empty dataset")
	}
	if _, err := Run(ds, tree, Config{Params: dbscan.Params{Eps: 0, MinPts: 2}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestWorkMetered(t *testing.T) {
	ds := questData(t, "c10k", 800)
	tree := kdtree.Build(ds)
	res, err := Run(ds, tree, Config{Params: tableParams, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work.DistComps == 0 || res.Work.MergeOps == 0 {
		t.Fatalf("work not metered: %+v", res.Work)
	}
}
