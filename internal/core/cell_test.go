package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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
	occ := map[int64]int{}
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

// coordsOfRank decodes a cell rank into per-axis coordinates.
func coordsOfRank(g *CellGrid, rank int64) []int32 {
	coords := make([]int32, g.Dim)
	for j := g.Dim - 1; j >= 0; j-- {
		coords[j] = int32(rank % int64(g.Dims[j]))
		rank /= int64(g.Dims[j])
	}
	return coords
}

func TestCellOfCoordsRoundTrip(t *testing.T) {
	ds := testDataset(t, "r10k", 1000)
	g, err := PlanCellGrid(ds, tableParams.Eps, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < int32(ds.Len()); i++ {
		rank := g.KeyOf(ds.At(i))
		if rank < 0 || rank >= g.NumCells() {
			t.Fatalf("point %d: rank %d out of [0,%d)", i, rank, g.NumCells())
		}
		coords := coordsOfRank(g, rank)
		for j, c := range coords {
			if c < 0 || c >= g.Dims[j] {
				t.Fatalf("point %d: coord %d out of [0,%d) on axis %d", i, c, g.Dims[j], j)
			}
		}
		env := g.Envelope(coords)
		for j, v := range ds.At(i) {
			if v < env.Min[j] || v > env.Max[j] {
				t.Fatalf("point %d not inside its home cell envelope on axis %d", i, j)
			}
		}
	}
}

// TestCellRankOrderIsCoordOrder: rank order is lexicographic
// coordinate order. Cell order, the LPT tie-breaks and the task
// assignment all rest on it.
func TestCellRankOrderIsCoordOrder(t *testing.T) {
	ds := testDataset(t, "c10k", 2000)
	planned, err := PlanCellGrid(ds, tableParams.Eps, 3*tableParams.Eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if planned.NumCells() == math.MaxInt64 {
		t.Fatalf("grid %v has no int64 ranks", planned.Dims)
	}
	unit := &CellGrid{ // unsplit axes (Dims 1) between split ones
		Dim:   5,
		Min:   []float64{0, 0, 0, 0, 0},
		Sides: []float64{1, 1, 1, 1, 1},
		Dims:  []int32{7, 1, 300, 1, 2},
	}
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*CellGrid{planned, unit} {
		randomCell := func() ([]int32, int64) {
			coords := make([]int32, g.Dim)
			for j := range coords {
				coords[j] = int32(rng.Intn(int(g.Dims[j])))
				if rng.Intn(4) == 0 { // share prefixes often
					coords[j] = 0
				}
			}
			env := g.Envelope(coords)
			center := make([]float64, g.Dim)
			for j := range center {
				center[j] = (env.Min[j] + env.Max[j]) / 2
			}
			return coords, g.KeyOf(center)
		}
		for trial := 0; trial < 20000; trial++ {
			a, ra := randomCell()
			b, rb := randomCell()
			want := slices.Compare(a, b)
			got := cmp.Compare(ra, rb)
			if got != want {
				t.Fatalf("dims %v: cells %v (rank %d) and %v (rank %d) compare %d, coords compare %d",
					g.Dims, a, ra, b, rb, got, want)
			}
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
		halo := make(map[int64]bool)
		scratch := make([]int32, g.Dim)
		for trial := 0; trial < 300; trial++ {
			i := int32(rng.Intn(ds.Len()))
			p := ds.At(i)
			home := g.KeyOf(p)
			for k := range halo {
				delete(halo, k)
			}
			g.HaloCells(p, scratch, func(rank int64) { halo[rank] = true })
			buf = tree.Radius(p, eps, buf[:0], &stats)
			for _, q := range buf {
				qc := g.KeyOf(ds.At(q))
				if qc != home && !halo[qc] {
					t.Fatalf("side=%g: neighbor %d (cell %d) of point %d (cell %d) missed by halo",
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
		halo := make(map[int64]bool)
		scratch := make([]int32, g.Dim)
		for i := int32(0); i < int32(ds.Len()); i++ {
			p := ds.At(i)
			home := g.KeyOf(p)
			for k := range halo {
				delete(halo, k)
			}
			last := int64(-1)
			g.HaloCells(p, scratch, func(rank int64) {
				if rank <= last || rank == home {
					t.Fatalf("side=%g: point %d: halo rank %d after %d (home %d)", side, i, rank, last, home)
				}
				last = rank
				halo[rank] = true
			})
			buf = tree.Radius(p, eps, buf[:0], &stats)
			for _, q := range buf {
				qc := g.KeyOf(ds.At(q))
				if qc != home && !halo[qc] {
					t.Fatalf("side=%g: neighbor %d (cell %d) of point %d (cell %d) missed by halo",
						side, q, qc, i, home)
				}
			}
		}
		// A caller that reuses its scratch enumerates without allocating.
		p := ds.At(0)
		for i := int32(1); g.HaloCells(p, scratch, func(int64) {}) == 0; i++ {
			p = ds.At(i) // find a point off the interior fast path
		}
		if allocs := testing.AllocsPerRun(50, func() {
			g.HaloCells(p, scratch, func(int64) {})
		}); allocs != 0 {
			t.Fatalf("side=%g: HaloCells allocates %v times per point", side, allocs)
		}
	}
}

// TestGroupCellsMatchesSortedShuffle: bucketing the map emissions in
// split order gives exactly the per-cell inputs a sort of all
// emissions by (cell, index) gives, and every home and halo list is
// strictly ascending.
func TestGroupCellsMatchesSortedShuffle(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ds          *geom.Dataset
		eps, side   float64
		targetPerCl int
	}{
		{"c10k/derived", testDataset(t, "c10k", 2000), tableParams.Eps, 0, 250},
		{"2d/ring3", dataset2D(1500, 11), 3, 1, 0},
	} {
		g, err := PlanCellGrid(tc.ds, tc.eps, tc.side, tc.targetPerCl)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.ds.Len()
		for _, parts := range []int{1, 3, 8} {
			part, err := NewPartitioner(n, parts)
			if err != nil {
				t.Fatal(err)
			}
			bySplit := make([][]cellEmit, parts)
			var all []cellEmit
			for s := range bySplit {
				lo, hi := part.Range(s)
				var in []int32
				for i := lo; i < hi; i++ {
					in = append(in, i)
				}
				var w simtime.Work
				bySplit[s] = emitCells(g, tc.ds, in, 1, &w)
				all = append(all, bySplit[s]...)
			}
			cells, emitted := groupCells(bySplit)

			sort.Slice(all, func(i, j int) bool {
				if all[i].cell != all[j].cell {
					return all[i].cell < all[j].cell
				}
				return all[i].idx < all[j].idx
			})
			var want []cellInput
			for i := 0; i < len(all); {
				var ci cellInput
				j := i
				for ; j < len(all) && all[j].cell == all[i].cell; j++ {
					if all[j].halo {
						ci.halo = append(ci.halo, all[j].idx)
					} else {
						ci.home = append(ci.home, all[j].idx)
					}
				}
				if len(ci.home) > 0 {
					want = append(want, ci)
				}
				i = j
			}

			what := fmt.Sprintf("%s/parts=%d", tc.name, parts)
			if emitted != len(all) {
				t.Fatalf("%s: %d emissions counted, %d emitted", what, emitted, len(all))
			}
			if len(cells) != len(want) {
				t.Fatalf("%s: %d cells, want %d", what, len(cells), len(want))
			}
			for c := range want {
				if !slices.Equal(cells[c].home, want[c].home) || !slices.Equal(cells[c].halo, want[c].halo) {
					t.Fatalf("%s: cell %d differs from the sorted grouping", what, c)
				}
				for _, list := range [][]int32{cells[c].home, cells[c].halo} {
					for k := 1; k < len(list); k++ {
						if list[k] <= list[k-1] {
							t.Fatalf("%s: cell %d list not strictly ascending at %d: %v", what, c, k, list)
						}
					}
				}
			}
		}
	}
}

// TestCellGridTooFineRejected: a grid whose cells outnumber int64
// ranks is refused by the cell stage, naming the options that coarsen
// it, while PlanCellGrid itself still plans it.
func TestCellGridTooFineRejected(t *testing.T) {
	ds := testDataset(t, "c10k", 2000)
	side := tableParams.Eps / 1000
	g, err := PlanCellGrid(ds, tableParams.Eps, side, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != math.MaxInt64 {
		t.Fatalf("side eps/1000 gives %d cells; want a saturated count", g.NumCells())
	}
	sctx := spark.NewContext(spark.Config{Cores: 4, Seed: 42})
	_, err = Run(sctx, ds, Config{
		Params: tableParams, Partitions: 4, Partitioning: PartCell,
		Cell: CellOptions{CellSide: side},
	})
	if err == nil {
		t.Fatal("cell stage accepted a grid too fine for int64 ranks")
	}
	for _, opt := range []string{"CellSide", "TargetPointsPerCell"} {
		if !strings.Contains(err.Error(), opt) {
			t.Fatalf("error %q does not name %s", err, opt)
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
