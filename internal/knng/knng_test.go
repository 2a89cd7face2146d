package knng

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/rng"
)

// naiveKNN is the O(n² log n) oracle: full sort per point on
// (distance, index).
func naiveKNN(ds *geom.Dataset, k int) *Graph {
	n := ds.Len()
	g := &Graph{K: k, Idx: make([]int32, n*k), Dist: make([]float64, n*k)}
	type cand struct {
		j int32
		d float64
	}
	for i := 0; i < n; i++ {
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cands = append(cands, cand{int32(j), math.Sqrt(geom.SqDistD(ds.At(int32(i)), ds.At(int32(j))))})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].j < cands[b].j
		})
		for m := 0; m < k; m++ {
			g.Idx[i*k+m] = cands[m].j
			g.Dist[i*k+m] = cands[m].d
		}
	}
	return g
}

func randomDataset(t *testing.T, n, dim int, seed uint64) *geom.Dataset {
	t.Helper()
	r := rng.New(seed)
	ds := geom.NewDataset(n, dim)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 100
	}
	return ds
}

func clusteredDataset(t *testing.T, n int) *geom.Dataset {
	t.Helper()
	spec, err := quest.ByName("c10k")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := quest.Generate(spec.Scaled(n))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testSeeds returns the deterministic-build seeds, extended by KNN_SEED
// from the CI matrix when set.
func testSeeds(t *testing.T) []uint64 {
	seeds := []uint64{1, 42}
	if env := os.Getenv("KNN_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad KNN_SEED %q: %v", env, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

func graphsEqual(a, b *Graph) bool {
	if a.K != b.K || len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Dist[i] != b.Dist[i] {
			return false
		}
	}
	return true
}

func TestBuildExactMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		n, dim, k int
		// dupAt, when set, copies row 3 over rows dupAt-2..dupAt+1 so
		// equal rows straddle the row tile boundary at dupAt.
		dupAt int
	}{
		{n: 200, dim: 3, k: 5},
		{n: 150, dim: 16, k: 10},
		{n: 64, dim: 128, k: 8},
		{n: 10, dim: 2, k: 9}, // k = n-1: every other point listed
		// Tile edges. n=1100 leaves a partial last row tile and a
		// partial last query sub-block. Four equal rows straddle a tile
		// boundary and k=3, so each of them has one more tie at distance
		// 0 than its list holds and the index decides across tiles. d=3
		// takes the portable kernel, d=128 the vector one.
		{n: 1100, dim: 3, k: 3, dupAt: rowTile},
		{n: 1100, dim: 128, k: 3, dupAt: 2 * rowTile},
		// k >= rowTile: seeding crosses a tile boundary, and every query
		// below k skips itself while seeding.
		{n: 600, dim: 3, k: rowTile + 8},
		{n: 600, dim: 128, k: rowTile + 4},
	} {
		t.Run(fmt.Sprintf("n=%d/dim=%d/k=%d/dupAt=%d", tc.n, tc.dim, tc.k, tc.dupAt), func(t *testing.T) {
			ds := randomDataset(t, tc.n, tc.dim, uint64(tc.n*tc.dim))
			if tc.dupAt > 0 {
				for j := tc.dupAt - 2; j <= tc.dupAt+1; j++ {
					copy(ds.At(int32(j)), ds.At(3))
				}
			}
			want := naiveKNN(ds, tc.k)
			for _, workers := range []int{1, 3} {
				got, err := BuildExact(ds, tc.k, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !graphsEqual(got, want) {
					t.Fatalf("workers=%d: exact graph differs from the naive oracle", workers)
				}
			}
		})
	}
}

func TestBuildExactDeterministicAcrossWorkers(t *testing.T) {
	ds := clusteredDataset(t, 600)
	base, err := BuildExact(ds, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		g, err := BuildExact(ds, 12, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, base) {
			t.Fatalf("exact graph differs at %d workers", workers)
		}
	}
}

func TestNNDescentDeterministicPerSeed(t *testing.T) {
	ds := clusteredDataset(t, 800)
	for _, seed := range testSeeds(t) {
		var base *Graph
		for _, workers := range []int{1, 2, 5} {
			g, err := BuildNNDescent(ds, 10, ApproxOptions{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = g
				continue
			}
			if !graphsEqual(g, base) {
				t.Fatalf("seed %d: approximate graph differs at %d workers", seed, workers)
			}
		}
		// Same seed, fresh run: byte-identical.
		again, err := BuildNNDescent(ds, 10, ApproxOptions{Seed: seed, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(again, base) {
			t.Fatalf("seed %d: repeated build differs", seed)
		}
	}
}

func TestNNDescentRecall(t *testing.T) {
	ds := clusteredDataset(t, 1500)
	const k = 10
	exact, err := BuildExact(ds, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range testSeeds(t) {
		approx, err := BuildNNDescent(ds, k, ApproxOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		recall, err := eval.RecallAtK(approx.Idx, exact.Idx, k)
		if err != nil {
			t.Fatal(err)
		}
		if recall < 0.9 {
			t.Fatalf("seed %d: NN-descent recall = %.3f, want >= 0.9", seed, recall)
		}
		// Approximation never fabricates: every listed distance is the
		// true distance to the listed point.
		for i := int32(0); i < int32(ds.Len()); i++ {
			nb, nd := approx.Neighbors(i), approx.Dists(i)
			for m, j := range nb {
				want := math.Sqrt(geom.SqDistD(ds.At(i), ds.At(j)))
				if math.Abs(nd[m]-want) > 1e-12 {
					t.Fatalf("point %d neighbour %d: stored distance %g, true %g", i, j, nd[m], want)
				}
			}
		}
	}
}

func TestPrefix(t *testing.T) {
	ds := randomDataset(t, 300, 8, 7)
	g32, err := BuildExact(ds, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := BuildExact(ds, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := g32.Prefix(8)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(pre, g8) {
		t.Fatal("Prefix(8) of the k=32 exact graph differs from the direct k=8 build")
	}
	if same, err := g32.Prefix(32); err != nil || same != g32 {
		t.Fatalf("Prefix(K) should return the graph itself, got %v (%v)", same, err)
	}
	if _, err := g32.Prefix(0); err == nil {
		t.Fatal("Prefix(0) should fail")
	}
	if _, err := g32.Prefix(33); err == nil {
		t.Fatal("Prefix beyond K should fail")
	}
}

func TestBuildValidation(t *testing.T) {
	ds := randomDataset(t, 10, 2, 1)
	if _, err := BuildExact(ds, 0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := BuildExact(ds, 10, 1); err == nil {
		t.Fatal("k=n should fail")
	}
	if _, err := BuildNNDescent(ds, 12, ApproxOptions{}); err == nil {
		t.Fatal("k>n should fail")
	}
}

// TestBuildRejectsNonFinite: a NaN or infinite coordinate has no
// ordered distance, so both builders refuse the dataset, naming the
// point.
func TestBuildRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := randomDataset(t, 50, 4, 3)
		ds.At(10)[2] = bad
		for name, build := range map[string]func() (*Graph, error){
			"exact":     func() (*Graph, error) { return BuildExact(ds, 5, 2) },
			"nndescent": func() (*Graph, error) { return BuildNNDescent(ds, 5, ApproxOptions{Seed: 1}) },
		} {
			g, err := build()
			if err == nil || !strings.Contains(err.Error(), "point 10") {
				t.Errorf("%s with coordinate %v: graph %v, error %v; want an error naming point 10", name, bad, g != nil, err)
			}
		}
	}
}

func TestKDistAndAccessors(t *testing.T) {
	ds := randomDataset(t, 50, 4, 9)
	g, err := BuildExact(ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 50 {
		t.Fatalf("Len = %d, want 50", g.Len())
	}
	for i := int32(0); i < 50; i++ {
		nd := g.Dists(i)
		if !sort.Float64sAreSorted(nd) {
			t.Fatalf("point %d: distances not ascending: %v", i, nd)
		}
		if g.KDist(i) != nd[len(nd)-1] {
			t.Fatalf("point %d: KDist %g != last distance %g", i, g.KDist(i), nd[len(nd)-1])
		}
	}
}

// int32Bytes views a label slice as comparable bytes, mirroring the
// bench helpers: byte-identical is the repo-wide determinism bar.
func int32Bytes(xs []int32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}
