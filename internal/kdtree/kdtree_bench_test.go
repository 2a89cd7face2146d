package kdtree

// Microbenchmarks for the packed query engine over the grid the perf
// trajectory tracks: {build, Radius, RadiusLimit} × d ∈
// {2, 10} × n ∈ {10k, 100k}. `benchrunner -bench kdtree` runs the same
// workloads outside the testing framework and records them in
// BENCH_kdtree.json.
//
//	go test ./internal/kdtree -bench . -benchmem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/quest"
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

// BenchmarkRadiusBlock answers one eps query per point of the c100k
// preset (d=10, eps 25), in leaf order, two ways: 32-point RadiusBlock
// calls and one Radius per point. One iteration is the whole pass.
func BenchmarkRadiusBlock(b *testing.B) {
	spec, err := quest.ByName("c100k")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := quest.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	tree := Build(ds)
	order := tree.Order()
	b.Run("block", func(b *testing.B) {
		var blk Block
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(order); lo += BlockSize {
				tree.RadiusBlock(order[lo:min(lo+BlockSize, len(order))], quest.TableIEps, &blk, nil)
			}
		}
	})
	b.Run("radius", func(b *testing.B) {
		var out []int32
		for i := 0; i < b.N; i++ {
			for _, x := range order {
				out = tree.Radius(ds.At(x), quest.TableIEps, out[:0], nil)
			}
		}
	})
}

// BenchmarkLeafScan scans one 128-point leaf at d=10 through scanLeaf,
// at radii that report none of its points, 16 of them (12.5%; a traced
// c100k offline run reports 12.9% of the distances it computes) and
// all of them. One iteration is one leaf.
func BenchmarkLeafScan(b *testing.B) {
	const m, dim = 128, 10
	ds := clusteredDataset(0x1eaf, m, dim, 1, 8)
	tree := BuildLeafSize(ds, m)
	q := slices.Clone(ds.At(0))
	for j := range q {
		q[j] += 6
	}
	dist := make([]float64, m)
	for i := range dist {
		dist[i] = math.Sqrt(geom.SqDistD(q, ds.At(int32(i))))
	}
	slices.Sort(dist)
	for _, tc := range []struct {
		name string
		eps  float64
	}{
		{"hits0", dist[0] / 2},
		{"hits13", (dist[m*13/100-1] + dist[m*13/100]) / 2},
		{"hits100", 2 * dist[m-1]},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var qs query
			tree.prepare(&qs, q, tc.eps*tc.eps)
			var out []int32
			var stats SearchStats
			for range b.N {
				out, _ = tree.scanLeaf(tree.root, &qs, -1, out[:0], &stats)
			}
			b.ReportMetric(float64(len(out)), "hits")
		})
	}
}
