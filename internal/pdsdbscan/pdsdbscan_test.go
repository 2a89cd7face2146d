package pdsdbscan

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/simtime"
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

func dataset2D(pts [][2]float64) *geom.Dataset {
	ds := geom.NewDataset(len(pts), 2)
	for i, p := range pts {
		ds.Set(int32(i), []float64{p[0], p[1]})
	}
	return ds
}

// smallGeometry is two 4-point squares and one isolated point.
func smallGeometry() *geom.Dataset {
	return dataset2D([][2]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{100, 100}, {101, 100}, {100, 101}, {101, 101},
		{50, 50},
	})
}

// borderFixture (eps 1, minPts 4) is two 4-point clusters bridged by
// one border point, index 8, within eps of exactly one core of each.
// Cluster 0 starts at point 0, but the lowest-index core next to the
// border is point 1, in cluster 1: sequential DBSCAN reaches the
// border from cluster 0 first and labels it 0, so a rule that hands a
// border to the first core claiming it in index order gets it wrong.
func borderFixture() *geom.Dataset {
	return dataset2D([][2]float64{
		{0, 0},      // 0: cluster 0
		{2, 0},      // 1: cluster 1, 0.95 from the border
		{0, 0.3},    // 2: cluster 0
		{0, -0.3},   // 3: cluster 0
		{0.1, 0},    // 4: cluster 0, 0.95 from the border
		{2.1, 0},    // 5: cluster 1
		{2.1, 0.3},  // 6: cluster 1
		{2.1, -0.3}, // 7: cluster 1
		{1.05, 0},   // 8: border
	})
}

// lattice is a 30×30 unit grid with a seeded fifth of its nodes
// removed and every tenth node doubled: with eps 1 every grid
// neighbour lies at exactly eps, and duplicates sit at distance 0.
func lattice() *geom.Dataset {
	r := rng.New(9)
	var pts [][2]float64
	for i := 0; i < 900; i++ {
		if r.Float64() < 0.2 {
			continue
		}
		p := [2]float64{float64(i % 30), float64(i / 30)}
		pts = append(pts, p)
		if i%10 == 0 {
			pts = append(pts, p)
		}
	}
	return dataset2D(pts)
}

// blobs64 is six Gaussian blobs (per-axis spread 1) in d=64 plus
// uniform noise: above 32 dimensions every query takes the tree's
// exact float64 path.
func blobs64() *geom.Dataset {
	const n, dim = 600, 64
	r := rng.New(64)
	centers := make([][]float64, 6)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.Float64() * 100
		}
	}
	ds := geom.NewDataset(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			if i%50 == 49 {
				ds.Coords[i*dim+j] = r.Float64() * 100
			} else {
				ds.Coords[i*dim+j] = centers[i%6][j] + r.NormFloat64()
			}
		}
	}
	return ds
}

type fixture struct {
	name   string
	ds     *geom.Dataset
	params dbscan.Params
}

func fixtures(t *testing.T) []fixture {
	return []fixture{
		{"c10k", questData(t, "c10k", 2500), tableParams},
		{"r10k", questData(t, "r10k", 2500), tableParams},
		{"small", smallGeometry(), dbscan.Params{Eps: 2, MinPts: 3}},
		{"border", borderFixture(), dbscan.Params{Eps: 1, MinPts: 4}},
		{"lattice", lattice(), dbscan.Params{Eps: 1, MinPts: 5}},
		{"d64", blobs64(), dbscan.Params{Eps: 10, MinPts: 5}},
	}
}

// TestMatchesSequentialAcrossWorkerCounts pins the engine to
// dbscan.Run byte for byte, its counts (and Census's) to one
// Radius neighbourhood size per point, and its Work ledger to the one-worker run's.
func TestMatchesSequentialAcrossWorkerCounts(t *testing.T) {
	for _, fx := range fixtures(t) {
		tree := kdtree.Build(fx.ds)
		ref, err := dbscan.Run(fx.ds, tree, fx.params)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int32, fx.ds.Len())
		var nbrs []int32
		for i := range counts {
			nbrs = tree.Radius(fx.ds.At(int32(i)), fx.params.Eps, nbrs[:0], nil)
			counts[i] = int32(len(nbrs))
		}
		var work simtime.Work
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Run(fx.ds, tree, Config{Params: fx.params, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				work = res.Work
			} else if res.Work != work {
				t.Fatalf("%s workers=%d: Work ledger %+v, one worker gave %+v", fx.name, workers, res.Work, work)
			}
			if !slices.Equal(res.Labels, ref.Labels) {
				t.Fatalf("%s workers=%d: labels differ from dbscan.Run", fx.name, workers)
			}
			if !slices.Equal(res.Core, ref.Core) {
				t.Fatalf("%s workers=%d: core flags differ from dbscan.Run", fx.name, workers)
			}
			if res.NumClusters != ref.NumClusters || res.NumNoise != ref.NumNoise {
				t.Fatalf("%s workers=%d: %d clusters/%d noise vs sequential %d/%d",
					fx.name, workers, res.NumClusters, res.NumNoise, ref.NumClusters, ref.NumNoise)
			}
			if !slices.Equal(res.Counts, counts) {
				t.Fatalf("%s workers=%d: Counts differ from Radius", fx.name, workers)
			}
		}
		// Census runs at GOMAXPROCS; CI's -cpu and -race runs vary it.
		if got := Census(fx.ds, tree, fx.params.Eps); !slices.Equal(got, counts) {
			t.Fatalf("%s: Census differs from Radius", fx.name)
		}
	}
}

func TestDeterministicClusterStructure(t *testing.T) {
	ds := questData(t, "r10k", 2000)
	tree := kdtree.Build(ds)
	first, err := Run(ds, tree, Config{Params: tableParams, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		res, err := Run(ds, tree, Config{Params: tableParams, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Labels, first.Labels) || !slices.Equal(res.Core, first.Core) {
			t.Fatalf("run %d: labels or core flags differ from the first run", run)
		}
	}
}

func TestSmallGeometry(t *testing.T) {
	ds := smallGeometry()
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
	if _, err := Run(smallGeometry(), tree, Config{Params: dbscan.Params{Eps: 1, MinPts: 2}}); err == nil {
		t.Fatal("tree over another dataset accepted")
	}
	bad := smallGeometry()
	bad.At(3)[0] = math.Inf(1)
	_, err = Run(bad, kdtree.Build(bad), Config{Params: dbscan.Params{Eps: 1, MinPts: 2}})
	if err == nil || !strings.Contains(err.Error(), "point 3") {
		t.Fatalf("infinite coordinate: error %v, want one naming point 3", err)
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

// BenchmarkRunBlocks times one Run on the c100k preset (eps 25, minPts
// 5) at GOMAXPROCS workers; every query goes through RadiusBlock.
func BenchmarkRunBlocks(b *testing.B) {
	spec, err := quest.ByName("c100k")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := quest.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	tree := kdtree.Build(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ds, tree, Config{Params: tableParams}); err != nil {
			b.Fatal(err)
		}
	}
}
