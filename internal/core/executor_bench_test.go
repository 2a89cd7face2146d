package core

import (
	"testing"

	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/simtime"
)

// BenchmarkLeafOrderExecutors runs every executor task of one exact-pair
// job over the c100k preset (d=10, eps 25, minPts 5) on one goroutine,
// reusing one neighbour table as a stage's executor does. range runs the
// 64 leaf-order partitions against the leaf-ordered driver tree; cell
// runs every cell of a grid with 3000 points per cell (perfbench's
// offline job), building each cell's tree. The driver-side tree build,
// grid plan and shuffle happen once, outside the timer. One iteration is
// the whole executor stage; nodes/op and dists/op are its search work.
func BenchmarkLeafOrderExecutors(b *testing.B) {
	spec, err := quest.ByName("c100k")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := quest.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := LocalOptions{Params: tableParams, SeedMode: SeedExact}
	report := func(b *testing.B, st kdtree.SearchStats) {
		b.ReportMetric(float64(st.NodesVisited)/float64(b.N), "nodes/op")
		b.ReportMetric(float64(st.DistComps)/float64(b.N), "dists/op")
	}

	b.Run("range", func(b *testing.B) {
		lds, tree := kdtree.Build(ds).LeafOrdered()
		part, err := NewPartitioner(lds.Len(), 64)
		if err != nil {
			b.Fatal(err)
		}
		tab := new(neighborTable)
		var st kdtree.SearchStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < part.Parts(); s++ {
				lr, err := localDBSCAN(lds, tree, part, s, opts, tab)
				if err != nil {
					b.Fatal(err)
				}
				st.Add(lr.Stats)
			}
		}
		report(b, st)
	})

	b.Run("cell", func(b *testing.B) {
		grid, err := PlanCellGrid(ds, tableParams.Eps, 0, 3000)
		if err != nil {
			b.Fatal(err)
		}
		all := make([]int32, ds.Len())
		for i := range all {
			all[i] = int32(i)
		}
		var w simtime.Work
		cells, _ := groupCells([][]cellEmit{emitCells(grid, ds, all, int64(ds.Dim*8+4), &w)})
		tab := new(neighborTable)
		var st kdtree.SearchStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ci, cell := range cells {
				lr, err := cellLocalDBSCAN(ds, cell, int32(ci), opts, tab)
				if err != nil {
					b.Fatal(err)
				}
				st.Add(lr.Stats)
			}
		}
		report(b, st)
	})
}
