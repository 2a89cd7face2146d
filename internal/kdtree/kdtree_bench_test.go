package kdtree

// Microbenchmarks for the packed query engine over the grid the perf
// trajectory tracks: {build, Radius, RadiusCount, RadiusLimit} × d ∈
// {2, 10} × n ∈ {10k, 100k}. `benchrunner -bench kdtree` runs the same
// workloads outside the testing framework and records them in
// BENCH_kdtree.json.
//
//	go test ./internal/kdtree -bench . -benchmem

import (
	"fmt"
	"testing"

	"sparkdbscan/internal/geom"
)

// benchDataset mirrors the Table I workload shape (quest.TableI): one
// planted cluster per ~1000 points with per-axis spread 8, at the
// paper's d=10 plus the low-dimensional case.
func benchDataset(n, dim int) *geom.Dataset {
	return clusteredDataset(uint64(n+dim), n, dim, n/1000, 8)
}

// benchEps yields neighbourhoods of a few dozen points, the DBSCAN
// regime (eps=25 is the paper's Table I setting for d=10).
func benchEps(dim int) float64 {
	if dim == 10 {
		return 25
	}
	return 4
}

var benchSizes = []struct {
	n   int
	tag string
}{
	{10_000, "10k"},
	{100_000, "100k"},
}

func BenchmarkBuild(b *testing.B) {
	for _, dim := range []int{2, 10} {
		for _, sz := range benchSizes {
			ds := benchDataset(sz.n, dim)
			b.Run(fmt.Sprintf("packed/d%d/n%s", dim, sz.tag), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Build(ds)
				}
			})
		}
	}
}

func benchRadius(b *testing.B, idx Index, ds *geom.Dataset, eps float64) {
	b.Helper()
	n := int32(ds.Len())
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.Radius(ds.At(int32(i)%n), eps, out[:0], nil)
	}
}

func benchRadiusCount(b *testing.B, idx Index, ds *geom.Dataset, eps float64) {
	b.Helper()
	n := int32(ds.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.RadiusCount(ds.At(int32(i)%n), eps, nil)
	}
}

func benchRadiusLimit(b *testing.B, idx Index, ds *geom.Dataset, eps float64) {
	b.Helper()
	n := int32(ds.Len())
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.RadiusLimit(ds.At(int32(i)%n), eps, 32, out[:0], nil)
	}
}

func BenchmarkQueries(b *testing.B) {
	for _, dim := range []int{2, 10} {
		for _, sz := range benchSizes {
			ds := benchDataset(sz.n, dim)
			eps := benchEps(dim)
			packed := Build(ds)
			grid := []struct {
				op    string
				bench func(*testing.B, Index, *geom.Dataset, float64)
			}{
				{"Radius", benchRadius},
				{"RadiusCount", benchRadiusCount},
				{"RadiusLimit", benchRadiusLimit},
			}
			for _, g := range grid {
				b.Run(fmt.Sprintf("%s/packed/d%d/n%s", g.op, dim, sz.tag), func(b *testing.B) {
					g.bench(b, packed, ds, eps)
				})
			}
		}
	}
}

func BenchmarkSqDistKernels(b *testing.B) {
	for _, dim := range []int{2, 3, 10, 17} {
		a := make([]float64, dim)
		c := make([]float64, dim)
		for j := range a {
			a[j] = float64(j) * 1.3
			c[j] = float64(j) * 0.7
		}
		b.Run(fmt.Sprintf("generic/d%d", dim), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += geom.SqDist(a, c)
			}
			_ = s
		})
		b.Run(fmt.Sprintf("unrolled/d%d", dim), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += geom.SqDistD(a, c)
			}
			_ = s
		})
	}
}
