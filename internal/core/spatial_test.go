package core

import (
	"fmt"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/spark"
)

// TestLeafOrderPartitionsReducePartialClusters: the exact pair's range
// partitions, runs of the kd-tree's leaf order, leave at most half the
// partial clusters of the paper pair's input index ranges, and their
// labels stay byte-identical to sequential DBSCAN's, in input order.
func TestLeafOrderPartitionsReducePartialClusters(t *testing.T) {
	ds := testDataset(t, "r10k", 5000)
	ref, _ := sequential(t, ds)
	for _, parts := range []int{16, 64} {
		run := func(algo MergeAlgo) *Result {
			sctx := spark.NewContext(spark.Config{Cores: 16, Seed: 3})
			res, err := Run(sctx, ds, Config{
				Params:     tableParams,
				Partitions: parts,
				Merge:      MergeOptions{Algo: algo},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		leaf, index := run(MergeParallel), run(MergePaper)
		if leaf.Global.NumPartialClusters*2 > index.Global.NumPartialClusters {
			t.Fatalf("parts=%d: leaf order did not halve partial clusters: %d vs %d on index ranges",
				parts, leaf.Global.NumPartialClusters, index.Global.NumPartialClusters)
		}
		compareLabels(t, fmt.Sprintf("parts=%d", parts), ref.Labels, leaf.Global.Labels)
	}
}

// FuzzExactPartitioning checks the exact pair in both partitioning
// modes — range mode on its leaf-order ranges and cell mode on a grid
// with a small target per cell, so several cells and eps-halos form —
// against sequential DBSCAN over brute-force neighbourhoods, byte for
// byte. Both modes answer their owned points in RadiusBlock blocks.
// grid holds the points' coordinates, dim bytes per point and at most
// 256 points, each byte taken mod 16 (so ASCII digits read as their
// value). An integer grid with integer eps puts duplicates and pairs
// at exactly eps in most inputs.
//
// The committed seed corpus (testdata/fuzz/FuzzExactPartitioning)
// holds one case per exactness condition of Wang, Gu and Shun's
// parallel DBSCAN (arXiv:1912.06255): a closed ball counting the point
// itself and its duplicates toward minPts, core connectivity through
// chains that cross partitions, a border within eps of two clusters'
// cores, which takes the lower label, minPts 1 and all-noise inputs,
// and the float64 path at d = 33.
func FuzzExactPartitioning(f *testing.F) {
	f.Fuzz(func(t *testing.T, dimRaw, minPtsRaw, partsRaw, epsRaw uint8, grid []byte) {
		dim := []int{1, 2, 3, 33}[dimRaw%4]
		n := min(len(grid)/dim, 256)
		if n == 0 {
			return
		}
		ds := geom.NewDataset(n, dim)
		for i := range ds.Coords {
			ds.Coords[i] = float64(grid[i] % 16)
		}
		params := dbscan.Params{Eps: float64(1 + epsRaw%3), MinPts: 1 + int(minPtsRaw%8)}
		parts := 1 + int(partsRaw%8)
		ref, err := dbscan.Run(ds, kdtree.NewBruteForce(ds), params)
		if err != nil {
			t.Fatal(err)
		}
		// A grid whose occupancy target cannot be met splits every axis
		// at eps, and on integer coordinates nearly every point then
		// lies on a cell wall: its halo reaches up to 3^dim cells. At
		// d = 33 the target is n, one cell with no halo.
		target := 2
		if dim > 3 {
			target = n
		}
		for _, mode := range []PartitionMode{PartRange, PartCell} {
			sctx := spark.NewContext(spark.Config{Cores: parts, Seed: 1})
			res, err := Run(sctx, ds, Config{
				Params:       params,
				Partitions:   parts,
				Partitioning: mode,
				Cell:         CellOptions{TargetPointsPerCell: target},
			})
			if err != nil {
				t.Fatal(err)
			}
			compareLabels(t, fmt.Sprintf("%s n=%d d=%d %+v parts=%d", mode, n, dim, params, parts),
				ref.Labels, res.Global.Labels)
		}
	})
}
