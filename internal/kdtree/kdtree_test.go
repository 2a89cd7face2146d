package kdtree

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
)

func randomDataset(seed uint64, n, dim int) *geom.Dataset {
	r := rng.New(seed)
	ds := geom.NewDataset(n, dim)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 100
	}
	return ds
}

func clusteredDataset(seed uint64, n, dim, clusters int, std float64) *geom.Dataset {
	r := rng.New(seed)
	ds := geom.NewDataset(n, dim)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.Float64() * 1000
		}
	}
	for i := 0; i < n; i++ {
		c := centers[i%clusters]
		for j := 0; j < dim; j++ {
			ds.Coords[i*dim+j] = c[j] + r.NormFloat64()*std
		}
	}
	return ds
}

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRadiusMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, dim int
		eps    float64
	}{
		{100, 2, 10}, {500, 3, 15}, {1000, 10, 40}, {37, 1, 5}, {1, 4, 3},
	} {
		ds := randomDataset(uint64(tc.n), tc.n, tc.dim)
		tree := Build(ds)
		bf := NewBruteForce(ds)
		for qi := int32(0); qi < int32(tc.n); qi += 7 {
			q := ds.At(qi)
			got := sortedCopy(tree.Radius(q, tc.eps, nil, nil))
			want := sortedCopy(bf.Radius(q, tc.eps, nil, nil))
			if len(got) != len(want) {
				t.Fatalf("n=%d dim=%d q=%d: %d results, want %d", tc.n, tc.dim, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d dim=%d q=%d: result %d = %d, want %d", tc.n, tc.dim, qi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRadiusProperty(t *testing.T) {
	// Property: for random datasets, query points and radii, tree and
	// brute force agree exactly.
	check := func(seed uint64, nRaw uint16, dimRaw, epsRaw uint8) bool {
		n := int(nRaw%300) + 1
		dim := int(dimRaw%5) + 1
		eps := float64(epsRaw%50) + 1
		ds := randomDataset(seed, n, dim)
		tree := Build(ds)
		bf := NewBruteForce(ds)
		r := rng.New(seed ^ 0xabc)
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.Float64() * 100
		}
		got := sortedCopy(tree.Radius(q, eps, nil, nil))
		want := sortedCopy(bf.Radius(q, eps, nil, nil))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusIncludesSelf(t *testing.T) {
	ds := randomDataset(5, 50, 3)
	tree := Build(ds)
	for i := int32(0); i < 50; i++ {
		found := false
		for _, r := range tree.Radius(ds.At(i), 0.001, nil, nil) {
			if r == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d not in its own 0-neighbourhood", i)
		}
	}
}

func TestRadiusLimit(t *testing.T) {
	ds := clusteredDataset(7, 1000, 3, 1, 5) // one dense cluster
	tree := Build(ds)
	q := ds.At(0)
	full := tree.Radius(q, 50, nil, nil)
	if len(full) < 100 {
		t.Fatalf("test setup: expected a dense neighbourhood, got %d", len(full))
	}
	limited := tree.RadiusLimit(q, 50, 10, nil, nil)
	if len(limited) != 10 {
		t.Fatalf("RadiusLimit returned %d, want 10", len(limited))
	}
	// Every limited result must be a true neighbour.
	fullSet := make(map[int32]bool, len(full))
	for _, p := range full {
		fullSet[p] = true
	}
	for _, p := range limited {
		if !fullSet[p] {
			t.Fatalf("RadiusLimit returned non-neighbour %d", p)
		}
	}
	// Limit larger than the neighbourhood returns everything.
	all := tree.RadiusLimit(q, 50, len(full)+100, nil, nil)
	if len(all) != len(full) {
		t.Fatalf("oversized limit: %d != %d", len(all), len(full))
	}
	// Limit 0 returns nothing.
	if got := tree.RadiusLimit(q, 50, 0, nil, nil); len(got) != 0 {
		t.Fatalf("limit 0 returned %d results", len(got))
	}
}

func TestStatsAreAccumulated(t *testing.T) {
	ds := randomDataset(21, 500, 3)
	tree := Build(ds)
	var stats SearchStats
	out := tree.Radius(ds.At(0), 30, nil, &stats)
	if stats.NodesVisited == 0 || stats.DistComps == 0 {
		t.Fatalf("stats not metered: %+v", stats)
	}
	if stats.Reported != int64(len(out)) {
		t.Fatalf("Reported = %d, want %d", stats.Reported, len(out))
	}
	prev := stats
	tree.Radius(ds.At(1), 30, nil, &stats)
	if stats.NodesVisited <= prev.NodesVisited {
		t.Fatal("stats did not accumulate across queries")
	}
}

func TestBuildOpsMetered(t *testing.T) {
	ds := randomDataset(31, 1000, 5)
	tree := Build(ds)
	ops := tree.BuildOps()
	n := float64(1000)
	logn := math.Log2(n)
	if float64(ops) < n || float64(ops) > 4*n*logn {
		t.Fatalf("BuildOps = %d outside [n, 4n log n] = [%g, %g]", ops, n, 4*n*logn)
	}
}

func TestDepthBalanced(t *testing.T) {
	ds := randomDataset(41, 4096, 3)
	tree := BuildLeafSize(ds, 16)
	depth := tree.Depth()
	// 4096/16 = 256 leaves -> ideal internal depth 8 (+1 leaf level).
	if depth > 14 {
		t.Fatalf("tree depth %d too deep for 4096 points", depth)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// All points identical: the tree must still build (degenerate
	// spread path) and return all of them.
	ds := geom.NewDataset(100, 3)
	for i := int32(0); i < 100; i++ {
		ds.Set(i, []float64{1, 2, 3})
	}
	tree := Build(ds)
	got := tree.Radius([]float64{1, 2, 3}, 0.5, nil, nil)
	if len(got) != 100 {
		t.Fatalf("got %d duplicates, want 100", len(got))
	}
}

// TestPadSlotsNeverReported queries leaves whose +Inf pad slots the
// float32 kernel would pass: under an infinite certainty band (a
// coordinate beyond epsBand's magnitude limit, or eps = +Inf) and for
// queries with a non-finite coordinate. Radius, RadiusBlock and MinKey
// must still report exactly BruteForce's neighbours, with no pad slot
// among them.
func TestPadSlotsNeverReported(t *testing.T) {
	ds := randomDataset(13, 45, 2)
	huge := randomDataset(14, 45, 2)
	huge.Set(7, []float64{1e18, 0})
	nan, inf := math.NaN(), math.Inf(1)
	queries := [][]float64{{inf, 3}, {-inf, 3}, {nan, 3}, {50, 50}}
	keys := make([]int32, ds.Len())
	for i := range keys {
		keys[i] = int32(ds.Len() - i)
	}
	for _, tc := range []struct {
		name string
		ds   *geom.Dataset
	}{{"finite", ds}, {"huge", huge}} {
		queries := append(queries, tc.ds.At(0), tc.ds.At(7))
		bf := NewBruteForce(tc.ds)
		for _, ls := range []int{5, 13, 64} {
			tree := BuildLeafSize(tc.ds, ls)
			mins := tree.KeyMins(keys)
			for _, eps := range []float64{30, inf} {
				for _, q := range queries {
					want := sortedCopy(bf.Radius(q, eps, nil, nil))
					if got := sortedCopy(tree.Radius(q, eps, nil, nil)); !slices.Equal(got, want) {
						t.Fatalf("%s leaf %d eps %g q %v: Radius %v, BruteForce %v", tc.name, ls, eps, q, got, want)
					}
					wantKey, wantCount := bruteMinKey(bf, keys, q, eps, tc.ds.Len()+1)
					if key, count := tree.MinKey(q, eps, keys, mins, tc.ds.Len()+1, nil); key != wantKey || count != wantCount {
						t.Fatalf("%s leaf %d eps %g q %v: MinKey (%d, %d), BruteForce (%d, %d)", tc.name, ls, eps, q, key, count, wantKey, wantCount)
					}
				}
				var blk Block
				tree.RadiusBlock([]int32{0, 7, 44}, eps, &blk, nil)
				for k, p := range []int32{0, 7, 44} {
					want := sortedCopy(bf.Radius(tc.ds.At(p), eps, nil, nil))
					if got := sortedCopy(blk.Neighbors(k)); !slices.Equal(got, want) {
						t.Fatalf("%s leaf %d eps %g point %d: RadiusBlock %v, BruteForce %v", tc.name, ls, eps, p, got, want)
					}
				}
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	ds := geom.NewDataset(0, 3)
	tree := Build(ds)
	if got := tree.Radius([]float64{0, 0, 0}, 10, nil, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %d results", len(got))
	}
	if got := tree.RadiusLimit([]float64{0, 0, 0}, 10, -1, nil, nil); len(got) != 0 {
		t.Fatalf("empty tree uncapped RadiusLimit returned %d results", len(got))
	}
}

func TestSinglePoint(t *testing.T) {
	ds := geom.NewDataset(1, 2)
	ds.Set(0, []float64{5, 5})
	tree := Build(ds)
	if got := tree.Radius([]float64{5, 5}, 1, nil, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point query = %v", got)
	}
	if got := tree.Radius([]float64{50, 50}, 1, nil, nil); len(got) != 0 {
		t.Fatalf("far query returned %v", got)
	}
}

func TestPrunedSearchVisitsFewerNodes(t *testing.T) {
	ds := clusteredDataset(61, 20000, 10, 5, 8)
	tree := Build(ds)
	var full, pruned SearchStats
	for qi := int32(0); qi < 200; qi++ {
		tree.Radius(ds.At(qi), 25, nil, &full)
		tree.RadiusLimit(ds.At(qi), 25, 10, nil, &pruned)
	}
	if pruned.NodesVisited >= full.NodesVisited {
		t.Fatalf("pruned search visited %d nodes, full %d — pruning not effective",
			pruned.NodesVisited, full.NodesVisited)
	}
}

func TestBruteForceLimitAndCount(t *testing.T) {
	ds := randomDataset(71, 200, 3)
	bf := NewBruteForce(ds)
	q := ds.At(0)
	full := bf.Radius(q, 40, nil, nil)
	if len(full) > 3 {
		lim := bf.RadiusLimit(q, 40, 3, nil, nil)
		if len(lim) != 3 {
			t.Fatalf("brute limit returned %d", len(lim))
		}
	}
	var stats SearchStats
	bf.Radius(q, 40, nil, &stats)
	if stats.DistComps != 200 || stats.Reported != int64(len(full)) {
		t.Fatalf("brute force stats %+v, want 200 DistComps and %d reported", stats, len(full))
	}
}

func TestAppendSemantics(t *testing.T) {
	// Radius must append to the provided slice, not clobber it.
	ds := randomDataset(81, 100, 2)
	tree := Build(ds)
	prefix := []int32{-7}
	out := tree.Radius(ds.At(0), 10, prefix, nil)
	if out[0] != -7 {
		t.Fatalf("Radius clobbered prefix: %v", out[:1])
	}
}

func BenchmarkBuild10k(b *testing.B) {
	ds := clusteredDataset(1, 10000, 10, 10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds)
	}
}

func BenchmarkRadius10k(b *testing.B) {
	ds := clusteredDataset(1, 10000, 10, 10, 8)
	tree := Build(ds)
	b.ResetTimer()
	var out []int32
	for i := 0; i < b.N; i++ {
		out = tree.Radius(ds.At(int32(i%10000)), 25, out[:0], nil)
	}
}

func BenchmarkRadiusBrute10k(b *testing.B) {
	ds := clusteredDataset(1, 10000, 10, 10, 8)
	bf := NewBruteForce(ds)
	b.ResetTimer()
	var out []int32
	for i := 0; i < b.N; i++ {
		out = bf.Radius(ds.At(int32(i%10000)), 25, out[:0], nil)
	}
}
