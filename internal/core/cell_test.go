package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

func TestPlanCellGridDerivation(t *testing.T) {
	ds := testDataset(t, "c10k", 4000)
	eps := tableParams.Eps
	g, err := PlanCellGrid(ds, eps, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if g.SplitSide < eps {
		t.Fatalf("derived side %g < eps %g", g.SplitSide, eps)
	}
	if g.SplitAxes < 1 || g.SplitAxes > g.Dim {
		t.Fatalf("derived grid split %d axes", g.SplitAxes)
	}
	if g.Ring != 1 {
		t.Fatalf("derived grid ring = %d, want 1 (side >= eps)", g.Ring)
	}
	// Occupancy is the planning criterion: the most loaded cell must
	// hold roughly the target (4x slack covers the sampling estimate).
	occ := map[string]int{}
	most := 0
	for i := int32(0); i < int32(ds.Len()); i++ {
		k := g.KeyOf(ds.At(i))
		occ[k]++
		if occ[k] > most {
			most = occ[k]
		}
	}
	if most > 4*500 {
		t.Fatalf("most loaded cell holds %d points for target 500", most)
	}
	if len(occ) < 2 {
		t.Fatal("derived grid never split the data")
	}
	bounds := ds.Bounds()
	for j := 0; j < g.Dim; j++ {
		covered := g.Min[j] + float64(g.Dims[j])*g.Sides[j]
		if covered < bounds.Max[j]-1e-9 {
			t.Fatalf("axis %d: grid covers to %g, bounds extend to %g", j, covered, bounds.Max[j])
		}
	}
	// Forcing a sub-eps side must produce a multi-ring halo.
	g2, err := PlanCellGrid(ds, eps, eps/3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Ring < 3 {
		t.Fatalf("side eps/3 gives ring %d, want >= 3", g2.Ring)
	}
}

func TestCellOfCoordsRoundTrip(t *testing.T) {
	ds := testDataset(t, "r10k", 1000)
	g, err := PlanCellGrid(ds, tableParams.Eps, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int32, g.Dim)
	for i := int32(0); i < int32(ds.Len()); i++ {
		key := g.KeyOf(ds.At(i))
		if len(key) != 4*g.Dim {
			t.Fatalf("point %d: key length %d, want %d", i, len(key), 4*g.Dim)
		}
		coords = g.CoordsOfKey(key, coords)
		for j, c := range coords {
			if c < 0 || c >= g.Dims[j] {
				t.Fatalf("point %d: coord %d out of [0,%d) on axis %d", i, c, g.Dims[j], j)
			}
		}
		if !g.Envelope(coords).Contains(ds.At(i)) {
			t.Fatalf("point %d not inside its home cell envelope", i)
		}
	}
}

// TestHaloSupersetProperty pins the correctness core of cell
// partitioning: for any two points within eps of each other, each
// one's home cell is reached by the other's halo enumeration (or they
// share a home cell). Without this, a cell could cluster with a
// truncated neighborhood.
func TestHaloSupersetProperty(t *testing.T) {
	ds := testDataset(t, "c10k", 2000)
	eps := tableParams.Eps
	// Sub-eps sides (multi-ring halos) are exercised on the 2-D
	// dataset below: in 10 dimensions a Ring-2 halo touches ~10^4
	// cells per boundary point, which is exactly why derived grids
	// never go below eps.
	for _, side := range []float64{0, eps * 3} {
		g, err := PlanCellGrid(ds, eps, side, 200)
		if err != nil {
			t.Fatal(err)
		}
		tree := kdtree.Build(ds)
		var stats kdtree.SearchStats
		var buf []int32
		rng := rand.New(rand.NewSource(7))
		halo := make(map[string]bool)
		for trial := 0; trial < 300; trial++ {
			i := int32(rng.Intn(ds.Len()))
			p := ds.At(i)
			home := g.KeyOf(p)
			for k := range halo {
				delete(halo, k)
			}
			g.HaloCells(p, func(key string) { halo[key] = true })
			buf = tree.Radius(p, eps, buf[:0], &stats)
			for _, q := range buf {
				qc := g.KeyOf(ds.At(q))
				if qc != home && !halo[qc] {
					t.Fatalf("side=%g: neighbor %d (cell %x) of point %d (cell %x) missed by halo",
						side, q, qc, i, home)
				}
			}
		}
	}
}

// dataset2D builds a small deterministic 2-D dataset — four Gaussian
// blobs plus scattered noise — cheap enough to exercise sub-eps cell
// sides (multi-ring halos) and grids that are almost entirely empty,
// which are combinatorially out of reach in the 10-D quest data.
func dataset2D(n int, seed int64) *geom.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := geom.NewDataset(n, 2)
	centers := [][2]float64{{20, 20}, {80, 25}, {50, 75}, {15, 85}}
	for i := 0; i < n; i++ {
		var p []float64
		if i%5 == 4 {
			p = []float64{rng.Float64() * 100, rng.Float64() * 100}
		} else {
			c := centers[i%len(centers)]
			p = []float64{c[0] + rng.NormFloat64()*4, c[1] + rng.NormFloat64()*4}
		}
		ds.Set(int32(i), p)
	}
	return ds
}

func TestHaloSupersetProperty2D(t *testing.T) {
	ds := dataset2D(1500, 11)
	eps := 3.0
	for _, side := range []float64{0, eps / 2, eps / 3} {
		g, err := PlanCellGrid(ds, eps, side, 100)
		if err != nil {
			t.Fatal(err)
		}
		tree := kdtree.Build(ds)
		var stats kdtree.SearchStats
		var buf []int32
		halo := make(map[string]bool)
		for i := int32(0); i < int32(ds.Len()); i++ {
			p := ds.At(i)
			home := g.KeyOf(p)
			for k := range halo {
				delete(halo, k)
			}
			g.HaloCells(p, func(key string) { halo[key] = true })
			buf = tree.Radius(p, eps, buf[:0], &stats)
			for _, q := range buf {
				qc := g.KeyOf(ds.At(q))
				if qc != home && !halo[qc] {
					t.Fatalf("side=%g: neighbor %d (cell %x) of point %d (cell %x) missed by halo",
						side, q, qc, i, home)
				}
			}
		}
	}
}

// runMode runs the full pipeline in the given partitioning mode and
// returns the result.
func runMode(t *testing.T, ds *geom.Dataset, params dbscan.Params, mode PartitionMode,
	parts int, cell CellOptions) *Result {
	t.Helper()
	sctx := spark.NewContext(spark.Config{Cores: 8, Seed: 42})
	res, err := Run(sctx, ds, Config{Params: params, Partitions: parts, Partitioning: mode, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCellLabelsByteIdentical is the label-invariance property test:
// across datasets, eps values, partition counts and cell sizes —
// including sides smaller than eps (multi-ring halos), grids with empty
// cells, and one giant cell holding every point — cell mode, range mode
// under the default exact pair, and sequential DBSCAN produce
// byte-identical label arrays.
func TestCellLabelsByteIdentical(t *testing.T) {
	eps0 := tableParams.Eps
	for _, dsName := range []string{"c10k", "r10k"} {
		// The full cross product runs at n=500; n=2000 spot-checks the
		// derived grid at one partition count (the 10-D runs are quadratic
		// in n, and the grid-geometry edge cases are size-independent).
		for _, n := range []int{500, 2000} {
			ds := testDataset(t, dsName, n)
			partsList := []int{1, 4, 16}
			cellList := []CellOptions{
				{},                              // derived side
				{TargetPointsPerCell: 50},       // fine derived grid
				{CellSide: math.MaxFloat64 / 4}, // one cell holds everything
			}
			if n > 500 {
				partsList = []int{16}
				cellList = cellList[:1]
			}
			for _, params := range []dbscan.Params{
				{Eps: eps0, MinPts: tableParams.MinPts},
				{Eps: 2 * eps0, MinPts: 2 * tableParams.MinPts},
			} {
				tree := kdtree.Build(ds)
				ref, err := dbscan.Run(ds, tree, params)
				if err != nil {
					t.Fatal(err)
				}
				for _, parts := range partsList {
					rres := runMode(t, ds, params, PartRange, parts, CellOptions{})
					compareLabels(t, fmt.Sprintf("%s/n=%d/eps=%g/parts=%d/range",
						dsName, n, params.Eps, parts), ref.Labels, rres.Global.Labels)
					for _, cell := range cellList {
						cres := runMode(t, ds, params, PartCell, parts, cell)
						compareLabels(t, fmt.Sprintf("%s/n=%d/eps=%g/parts=%d/cell=%+v",
							dsName, n, params.Eps, parts, cell), ref.Labels, cres.Global.Labels)
					}
				}
			}
		}
	}
}

// TestCellLabelsByteIdentical2D covers the grid geometries the 10-D
// quest data cannot afford: cell sides below eps (Ring 2 and 3 halos)
// and grids where nearly every cell is empty.
func TestCellLabelsByteIdentical2D(t *testing.T) {
	params := dbscan.Params{Eps: 3, MinPts: 5}
	for _, seed := range []int64{11, 23} {
		ds := dataset2D(1500, seed)
		tree := kdtree.Build(ds)
		ref, err := dbscan.Run(ds, tree, params)
		if err != nil {
			t.Fatal(err)
		}
		if ref.NumClusters < 2 {
			t.Fatalf("seed %d: degenerate reference (%d clusters)", seed, ref.NumClusters)
		}
		for _, parts := range []int{1, 3, 8} {
			rres := runMode(t, ds, params, PartRange, parts, CellOptions{})
			compareLabels(t, fmt.Sprintf("2d/seed=%d/parts=%d/range", seed, parts),
				ref.Labels, rres.Global.Labels)
			for _, cell := range []CellOptions{
				{},                         // derived side
				{CellSide: params.Eps / 2}, // Ring-2 halo
				{CellSide: params.Eps / 3}, // Ring-3 halo, ~10k-cell grid, mostly empty
				{CellSide: 500},            // one cell holds everything
			} {
				cres := runMode(t, ds, params, PartCell, parts, cell)
				compareLabels(t, fmt.Sprintf("2d/seed=%d/parts=%d/cell=%+v", seed, parts, cell),
					ref.Labels, cres.Global.Labels)
			}
		}
	}
}

func compareLabels(t *testing.T, what string, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestCellDistStats sanity-checks the distribution report: cell mode's
// per-executor broadcast payload must be orders of magnitude below
// range mode's, and the shuffle must account for every point crossing
// twice (write + read legs) plus halo replication.
func TestCellDistStats(t *testing.T) {
	ds := testDataset(t, "c10k", 2000)
	rres := runMode(t, ds, tableParams, PartRange, 8, CellOptions{})
	cres := runMode(t, ds, tableParams, PartCell, 8, CellOptions{TargetPointsPerCell: 250})

	if rres.Dist.Mode != "range" || cres.Dist.Mode != "cell" {
		t.Fatalf("modes = %q, %q", rres.Dist.Mode, cres.Dist.Mode)
	}
	if rres.Dist.BroadcastBytes < ds.SizeBytes() {
		t.Fatalf("range broadcast %d B < dataset %d B", rres.Dist.BroadcastBytes, ds.SizeBytes())
	}
	if cres.Dist.BroadcastBytes*10 > rres.Dist.BroadcastBytes {
		t.Fatalf("cell broadcast %d B not well below range %d B",
			cres.Dist.BroadcastBytes, rres.Dist.BroadcastBytes)
	}
	pointBytes := int64(ds.Dim*8 + 4)
	minShuffle := int64(ds.Len()) * pointBytes // at least the write leg of every home point
	if cres.Dist.ShuffleBytes < minShuffle {
		t.Fatalf("cell shuffle %d B < home write leg %d B", cres.Dist.ShuffleBytes, minShuffle)
	}
	if cres.Dist.HaloPoints <= 0 {
		t.Fatal("no halo replication on a clustered dataset")
	}
	if cres.Dist.Cells <= 1 {
		t.Fatalf("derived grid produced %d cells", cres.Dist.Cells)
	}
	if rres.Dist.ShuffleBytes != 0 || rres.Dist.HaloPoints != 0 {
		t.Fatalf("range mode charged shuffle lines: %+v", rres.Dist)
	}
	// The ledger must carry the same lines.
	ledger := func(res *Result) simtime.Work {
		w := res.Report.DriverWork
		for _, s := range res.Report.Stages {
			w.Add(s.Work)
		}
		return w
	}
	if w := ledger(cres); w.ShuffleBytes != cres.Dist.ShuffleBytes {
		t.Fatalf("ledger ShuffleBytes %d != Dist %d", w.ShuffleBytes, cres.Dist.ShuffleBytes)
	} else if w.HaloPoints != cres.Dist.HaloPoints {
		t.Fatalf("ledger HaloPoints %d != Dist %d", w.HaloPoints, cres.Dist.HaloPoints)
	}
	if rw := ledger(rres); rw.ShuffleBytes != 0 || rw.HaloPoints != 0 {
		t.Fatalf("range ledger has shuffle lines: %+v", rw)
	}
}

// TestCanonicalMergeOrderIndependent: the canonical merge must assign
// the same labels no matter what order partial clusters arrive in — the
// property that frees cell mode from accumulator commit order.
func TestCanonicalMergeOrderIndependent(t *testing.T) {
	ds := testDataset(t, "c10k", 1500)
	tree := kdtree.Build(ds)
	part, err := NewPartitioner(ds.Len(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var partials []PartialCluster
	for s := 0; s < 7; s++ {
		lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedExact})
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, lr.Clusters...)
	}
	base := Merge(partials, ds.Len(), MergeOptions{Workers: 1})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]PartialCluster(nil), partials...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := Merge(shuffled, ds.Len(), MergeOptions{Workers: 1 + trial})
		compareLabels(t, fmt.Sprintf("shuffle %d", trial), base.Labels, got.Labels)
		if got.NumClusters != base.NumClusters || got.NumNoise != base.NumNoise {
			t.Fatalf("shuffle %d: clusters/noise %d/%d, want %d/%d",
				trial, got.NumClusters, got.NumNoise, base.NumClusters, base.NumNoise)
		}
	}
}

// TestCellModeEmptyDataset: a zero-point run must not plan a grid.
func TestCellModeEmptyDataset(t *testing.T) {
	ds := geom.NewDataset(0, 3)
	sctx := spark.NewContext(spark.Config{Cores: 2})
	res, err := Run(sctx, ds, Config{
		Params: tableParams, Partitions: 2, Partitioning: PartCell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.NumClusters != 0 || res.Global.NumNoise != 0 {
		t.Fatalf("empty run: %+v", res.Global)
	}
}
