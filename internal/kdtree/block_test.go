package kdtree

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
)

// checkBlocks runs RadiusBlock over every BlockSize run of tree's leaf
// order, a filtered subset of each run and a few blocks of scattered
// points, and requires each query's neighbour set to equal want (point
// p's sorted BruteForce neighbours), its order to be ascending
// leaf-order position, and stats.Reported to be the block's total.
func checkBlocks(t *testing.T, tree *Tree, ds *geom.Dataset, eps float64, want [][]int32) {
	t.Helper()
	order := tree.Order()
	pos := make([]int, len(order))
	for i, x := range order {
		pos[x] = i
	}
	var blk Block
	check := func(pts []int32) {
		t.Helper()
		var stats SearchStats
		tree.RadiusBlock(pts, eps, &blk, &stats)
		var reported int64
		for k, p := range pts {
			got := blk.Neighbors(k)
			reported += int64(len(got))
			for i := 1; i < len(got); i++ {
				if pos[got[i-1]] >= pos[got[i]] {
					t.Fatalf("query %d: neighbours not in leaf order: %v", p, got)
				}
			}
			if got := sortedCopy(got); !reflect.DeepEqual(got, want[p]) {
				t.Fatalf("query %d of block %v: got %v want %v", p, pts, got, want[p])
			}
		}
		if stats.Reported != reported {
			t.Fatalf("stats.Reported = %d, neighbours %d", stats.Reported, reported)
		}
	}
	for lo := 0; lo < len(order); lo += BlockSize {
		run := order[lo:min(lo+BlockSize, len(order))]
		check(run)
		var sub []int32
		for i, x := range run {
			if (lo+i)%3 != 1 {
				sub = append(sub, x)
			}
		}
		check(sub)
	}
	r := rng.New(uint64(len(order)*ds.Dim) ^ 0x5ca7)
	for trial := 0; trial < 4; trial++ {
		pts := make([]int32, 1+r.Intn(BlockSize))
		for i := range pts {
			pts[i] = int32(r.Intn(ds.Len()))
		}
		check(pts)
	}
}

// TestRadiusBlockMatchesBruteForce covers both leaf paths (float32 at
// d ≤ 32, float64 above), leaf sizes from 1 to 128, duplicated and
// all-identical points, an eps at exactly one pair's distance, so the
// boundary is decided by the certainty band and SqDistD's bits, and an
// eps beyond the dataset's diameter, whose ball covers every node.
func TestRadiusBlockMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{1, 2, 10, 33, 64} {
		clustered := clusteredDataset(uint64(dim), 500, dim, 4, 6)
		dup := clusteredDataset(uint64(dim+1), 300, dim, 3, 4)
		for i := 5; i < dup.Len(); i += 5 {
			dup.Set(int32(i), dup.At(int32(i-1)))
		}
		same := geom.NewDataset(70, dim)
		for i := range same.Coords {
			same.Coords[i] = 3.5
		}
		for _, tc := range []struct {
			name string
			ds   *geom.Dataset
		}{{"clustered", clustered}, {"duplicates", dup}, {"identical", same}} {
			bf := NewBruteForce(tc.ds)
			boundary := math.Sqrt(geom.SqDistD(tc.ds.At(0), tc.ds.At(12)))
			for _, eps := range []float64{4 * math.Sqrt(float64(dim)), boundary, 1e5} {
				want := make([][]int32, tc.ds.Len())
				for p := range want {
					want[p] = sortedCopy(bf.Radius(tc.ds.At(int32(p)), eps, nil, nil))
				}
				for _, ls := range []int{1, 3, 16, 128} {
					t.Run(fmt.Sprintf("%s/d%d/eps%g/leaf%d", tc.name, dim, eps, ls), func(t *testing.T) {
						checkBlocks(t, BuildLeafSize(tc.ds, ls), tc.ds, eps, want)
					})
				}
			}
		}
	}
}

func TestRadiusBlockEmpty(t *testing.T) {
	tree := Build(geom.NewDataset(0, 3))
	var blk Block
	var stats SearchStats
	tree.RadiusBlock(nil, 1, &blk, &stats)
	if stats != (SearchStats{}) {
		t.Fatalf("empty block metered work: %+v", stats)
	}
	ds := randomDataset(4, 100, 3)
	Build(ds).RadiusBlock(nil, 1, &blk, &stats)
	if stats != (SearchStats{}) {
		t.Fatalf("empty block metered work: %+v", stats)
	}
}

// TestRadiusBlockAllocs requires a warmed Block to make a whole
// leaf-order pass without allocating, on both leaf paths.
func TestRadiusBlockAllocs(t *testing.T) {
	for _, dim := range []int{10, 64} {
		ds := clusteredDataset(uint64(dim), 2048, dim, 4, 8)
		tree := Build(ds)
		order := tree.Order()
		var blk Block
		var stats SearchStats
		pass := func() {
			for lo := 0; lo < len(order); lo += BlockSize {
				tree.RadiusBlock(order[lo:lo+BlockSize], 3*math.Sqrt(float64(dim)), &blk, &stats)
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
			t.Fatalf("d=%d: warmed RadiusBlock pass allocates %v times", dim, allocs)
		}
	}
}

// TestSingleQueriesDoNotAllocate keeps each query's state (narrowed
// copy, thresholds, leaf distance buffer) on the caller's stack.
func TestSingleQueriesDoNotAllocate(t *testing.T) {
	for _, dim := range []int{10, 64} {
		ds := clusteredDataset(uint64(dim), 1024, dim, 4, 8)
		tree := Build(ds)
		eps := 3 * math.Sqrt(float64(dim))
		out := make([]int32, 0, ds.Len())
		keys := make([]int32, ds.Len())
		mins := tree.KeyMins(keys)
		allocs := testing.AllocsPerRun(20, func() {
			for i := int32(0); i < 64; i++ {
				out = tree.Radius(ds.At(i), eps, out[:0], nil)
				tree.MinKey(ds.At(i), eps, keys, mins, ds.Len(), nil)
			}
		})
		if allocs != 0 {
			t.Fatalf("d=%d: Radius and MinKey allocate %v times per 64 queries", dim, allocs)
		}
	}
}
