package kdtree

// Equivalence properties of the packed tree against the brute-force
// reference: exact Radius/RadiusCount
// agreement and the RadiusLimit subset contract, across leaf sizes,
// dimensions and degenerate inputs — plus determinism of the parallel
// build. CI runs this file under -race to lock in the concurrent build.

import (
	"reflect"
	"testing"
	"testing/quick"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
)

var propLeafSizes = []int{1, 3, 16, 64}

// checkEquivalence asserts the three Index contracts for one tree /
// query pair against brute force.
func checkEquivalence(t *testing.T, tree *Tree, bf *BruteForce, q []float64, eps float64, max int) {
	t.Helper()
	got := sortedCopy(tree.Radius(q, eps, nil, nil))
	want := sortedCopy(bf.Radius(q, eps, nil, nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Radius mismatch: got %v want %v", got, want)
	}
	if cnt := tree.RadiusCount(q, eps, nil); cnt != len(want) {
		t.Fatalf("RadiusCount = %d, want %d", cnt, len(want))
	}
	lim := tree.RadiusLimit(q, eps, max, nil, nil)
	wantLen := len(want)
	if wantLen > max {
		wantLen = max
	}
	if len(lim) != wantLen {
		t.Fatalf("RadiusLimit(max=%d) returned %d results, want %d", max, len(lim), wantLen)
	}
	trueSet := make(map[int32]bool, len(want))
	for _, p := range want {
		trueSet[p] = true
	}
	for _, p := range lim {
		if !trueSet[p] {
			t.Fatalf("RadiusLimit returned non-neighbour %d", p)
		}
	}
}

func TestPackedTreeEquivalenceAcrossLeafSizes(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 10} {
		for _, ls := range propLeafSizes {
			ds := clusteredDataset(uint64(dim*100+ls), 700, dim, 4, 6)
			bf := NewBruteForce(ds)
			tree := BuildLeafSize(ds, ls)
			r := rng.New(uint64(ls) ^ 0xfeed)
			for trial := 0; trial < 20; trial++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = r.Float64() * 1000
				}
				eps := 5 + r.Float64()*60
				checkEquivalence(t, tree, bf, q, eps, 1+trial%9)
			}
			// Query points of the dataset itself (the DBSCAN access
			// pattern: every query hits at least itself).
			for qi := int32(0); qi < 700; qi += 97 {
				checkEquivalence(t, tree, bf, ds.At(qi), 20, 5)
			}
		}
	}
}

func TestPackedTreeEquivalenceAllIdentical(t *testing.T) {
	// The degenerate dataset: every point identical, which forces one
	// oversized leaf regardless of leaf size and exercises the bbox
	// inclusion fast path (a point-sized box is always fully inside or
	// fully outside the ball).
	for _, ls := range propLeafSizes {
		ds := geom.NewDataset(257, 3)
		for i := int32(0); i < 257; i++ {
			ds.Set(i, []float64{4, 5, 6})
		}
		bf := NewBruteForce(ds)
		tree := BuildLeafSize(ds, ls)
		checkEquivalence(t, tree, bf, []float64{4, 5, 6}, 0.5, 10)
		checkEquivalence(t, tree, bf, []float64{9, 9, 9}, 0.5, 10)
		checkEquivalence(t, tree, bf, []float64{4, 5, 6.5}, 0.5, 300)
		var stats SearchStats
		tree.Radius([]float64{4, 5, 6}, 1, nil, &stats)
		if stats.NodesIncluded == 0 {
			t.Fatalf("expected bbox inclusion on identical points: %+v", stats)
		}
		if stats.DistComps != 0 {
			t.Fatalf("inclusion should not compute distances: %+v", stats)
		}
	}
}

// TestPackedTreeBuildOpsGolden pins the metered tree-build ledger the
// simulated clock prices: a fixed dataset and leaf size must always
// meter the same build work. Query equivalence is covered against
// BruteForce above.
func TestPackedTreeBuildOpsGolden(t *testing.T) {
	tree := BuildLeafSize(clusteredDataset(321, 1500, 10, 6, 8), 16)
	if got := tree.BuildOps(); got != 12000 {
		t.Fatalf("BuildOps() = %d, want 12000", got)
	}
}

func TestRadiusLimitZeroAndNegative(t *testing.T) {
	ds := randomDataset(11, 200, 3)
	tree := Build(ds)
	if got := tree.RadiusLimit(ds.At(0), 50, 0, nil, nil); len(got) != 0 {
		t.Fatalf("limit 0 returned %d", len(got))
	}
	if got := tree.RadiusLimit(ds.At(0), 50, -5, nil, nil); len(got) != 0 {
		t.Fatalf("negative limit returned %d", len(got))
	}
}

func TestRadiusQuickProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint16, dimRaw, lsRaw, epsRaw uint8) bool {
		n := int(nRaw%500) + 1
		dim := int(dimRaw%10) + 1
		ls := propLeafSizes[int(lsRaw)%len(propLeafSizes)]
		eps := float64(epsRaw%60) + 1
		ds := randomDataset(seed, n, dim)
		tree := BuildLeafSize(ds, ls)
		bf := NewBruteForce(ds)
		r := rng.New(seed ^ 0xdead)
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.Float64() * 100
		}
		got := sortedCopy(tree.Radius(q, eps, nil, nil))
		want := sortedCopy(bf.Radius(q, eps, nil, nil))
		if !reflect.DeepEqual(got, want) {
			return false
		}
		if tree.RadiusCount(q, eps, nil) != len(want) {
			return false
		}
		max := 1 + int(seed%7)
		lim := tree.RadiusLimit(q, eps, max, nil, nil)
		if len(lim) > max {
			return false
		}
		set := make(map[int32]bool, len(want))
		for _, p := range want {
			set[p] = true
		}
		for _, p := range lim {
			if !set[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRadiusEquivalence is the go-native fuzz entry for the same
// property; `go test` runs the seed corpus, `go test -fuzz=Radius`
// explores further.
func FuzzRadiusEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(2), uint8(1), 12.0)
	f.Add(uint64(99), uint16(333), uint8(10), uint8(0), 30.0)
	f.Add(uint64(7), uint16(1), uint8(1), uint8(3), 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, dimRaw, lsRaw uint8, eps float64) {
		n := int(nRaw%600) + 1
		dim := int(dimRaw%12) + 1
		ls := propLeafSizes[int(lsRaw)%len(propLeafSizes)]
		if eps != eps || eps <= 0 || eps > 1e6 { // NaN / nonpositive / absurd
			return
		}
		ds := randomDataset(seed, n, dim)
		tree := BuildLeafSize(ds, ls)
		bf := NewBruteForce(ds)
		r := rng.New(seed ^ 0xbeef)
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.Float64() * 100
		}
		checkEquivalence(t, tree, bf, q, eps, 1+int(seed%16))
	})
}

func TestParallelBuildDeterministic(t *testing.T) {
	// The same dataset built with 1, 2 and 8 workers must produce
	// bit-identical trees: the cutoff is a function of n only, workers
	// merely bound the pool.
	ds := clusteredDataset(777, 30000, 10, 8, 10)
	serial := buildTree(ds, 16, 1)
	for _, workers := range []int{2, 8} {
		par := buildTree(ds, 16, workers)
		if !reflect.DeepEqual(serial.nodes, par.nodes) {
			t.Fatalf("workers=%d: node tables differ", workers)
		}
		if !reflect.DeepEqual(serial.order, par.order) {
			t.Fatalf("workers=%d: order permutation differs", workers)
		}
		if !reflect.DeepEqual(serial.packed, par.packed) {
			t.Fatalf("workers=%d: packed coordinates differ", workers)
		}
		if !reflect.DeepEqual(serial.bboxMin, par.bboxMin) ||
			!reflect.DeepEqual(serial.bboxMax, par.bboxMax) {
			t.Fatalf("workers=%d: bounding boxes differ", workers)
		}
		if serial.buildOps != par.buildOps {
			t.Fatalf("workers=%d: buildOps %d vs %d", workers, serial.buildOps, par.buildOps)
		}
	}
}

func TestParallelBuildEquivalence(t *testing.T) {
	// Above the parallel threshold, the public Build must still answer
	// queries identically to brute force.
	ds := clusteredDataset(888, minParallelBuild*2, 10, 5, 12)
	tree := Build(ds)
	bf := NewBruteForce(ds)
	for qi := int32(0); qi < int32(ds.Len()); qi += 509 {
		checkEquivalence(t, tree, bf, ds.At(qi), 25, 7)
	}
}

func TestMemoryBytesTracksPayload(t *testing.T) {
	ds := randomDataset(3, 2000, 10)
	tree := Build(ds)
	got := tree.MemoryBytes()
	// The payload must cover at least the packed coordinate copy
	// (n*d float32s), the order permutation and one bbox pair per node.
	minBytes := int64(2000*10*4) + int64(2000*4) + int64(tree.NodeCount()*10*2*8)
	if got < minBytes {
		t.Fatalf("MemoryBytes %d below accountable payload %d", got, minBytes)
	}
	small := BuildLeafSize(geom.NewDataset(0, 3), 16)
	if small.MemoryBytes() != 0 {
		t.Fatalf("empty tree reports %d bytes", small.MemoryBytes())
	}
}

func TestInclusionStatsMetered(t *testing.T) {
	// A huge ball over a clustered dataset must trigger subtree
	// inclusion, and the inclusion events must be metered.
	ds := clusteredDataset(91, 5000, 2, 3, 5)
	tree := Build(ds)
	var stats SearchStats
	out := tree.Radius(ds.At(0), 1e6, nil, &stats)
	if len(out) != 5000 {
		t.Fatalf("cover-all query returned %d", len(out))
	}
	if stats.NodesIncluded == 0 {
		t.Fatalf("no inclusion events on cover-all query: %+v", stats)
	}
	if stats.Reported != 5000 {
		t.Fatalf("Reported = %d", stats.Reported)
	}
	// Inclusion must also price into RadiusCount.
	stats = SearchStats{}
	if cnt := tree.RadiusCount(ds.At(0), 1e6, &stats); cnt != 5000 || stats.NodesIncluded == 0 {
		t.Fatalf("count=%d stats=%+v", cnt, stats)
	}
}
