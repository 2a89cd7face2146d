// Package kdist implements the k-distance heuristic of the original
// DBSCAN paper (Ester et al. 1996, §4.2) for choosing eps: compute each
// point's distance to its k-th nearest neighbour, sort descending, and
// look for the "valley" (elbow) of the resulting plot — points left of
// the elbow are noise, and the k-distance at the elbow is a good eps
// for minpts = k+1.
//
// The computation is embarrassingly parallel and runs as a job on the
// spark substrate (one more realistic workload exercising broadcast +
// mapPartitions), or sequentially via Compute.
package kdist

import (
	"fmt"
	"math"
	"sort"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

// Compute returns each point's k-distance (distance to its k-th nearest
// neighbour, self excluded), in point order. k must be in [1, n-1].
func Compute(ds *geom.Dataset, tree *kdtree.Tree, k int) ([]float64, error) {
	n := ds.Len()
	if k < 1 || k >= n {
		return nil, fmt.Errorf("kdist: k=%d out of range [1, %d)", k, n)
	}
	out := make([]float64, n)
	var stats kdtree.SearchStats
	for i := int32(0); i < int32(n); i++ {
		d, err := kthDistance(ds, tree, i, k, &stats)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// ComputeDistributed computes k-distances on a spark context, one task
// per partition, and returns them in point order.
func ComputeDistributed(sctx *spark.Context, ds *geom.Dataset, k, partitions int) ([]float64, error) {
	n := ds.Len()
	if k < 1 || k >= n {
		return nil, fmt.Errorf("kdist: k=%d out of range [1, %d)", k, n)
	}
	if partitions < 1 {
		partitions = sctx.Config().Cores
	}
	var tree *kdtree.Tree
	err := sctx.RunInDriver("kdist tree build", func(w *simtime.Work) error {
		tree = kdtree.Build(ds)
		w.TreeBuildOps += tree.BuildOps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	bc := spark.NewBroadcast(sctx, tree, ds.SizeBytes()+tree.MemoryBytes())

	indices := make([]int32, n)
	for i := range indices {
		indices[i] = int32(i)
	}
	rdd := spark.Parallelize(sctx, indices, partitions)
	type chunk struct {
		Start int32
		Dist  []float64
	}
	chunks, err := spark.MapPartitionsWithIndex(rdd,
		func(split int, in []int32, tc *spark.TaskContext) ([]chunk, error) {
			if len(in) == 0 {
				return nil, nil
			}
			t := bc.Value()
			var stats kdtree.SearchStats
			c := chunk{Start: in[0], Dist: make([]float64, len(in))}
			for j, idx := range in {
				d, err := kthDistance(ds, t, idx, k, &stats)
				if err != nil {
					return nil, err
				}
				c.Dist[j] = d
			}
			tc.Charge(simtime.Work{
				KDNodes:   stats.NodesVisited,
				DistComps: stats.DistComps,
				Elems:     int64(len(in)),
			})
			return []chunk{c}, nil
		}).Collect()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for _, c := range chunks {
		copy(out[c.Start:], c.Dist)
	}
	return out, nil
}

// kthDistance finds point i's k-th nearest neighbour distance by
// growing a range search until at least k+1 points (self included) are
// inside, then selecting the k-th smallest distance.
func kthDistance(ds *geom.Dataset, tree *kdtree.Tree, i int32, k int, stats *kdtree.SearchStats) (float64, error) {
	q := ds.At(i)
	// Initial radius guess: grow geometrically from a scale-free seed.
	r := initialRadius(ds)
	var nbrs []int32
	for attempt := 0; attempt < 64; attempt++ {
		nbrs = tree.Radius(q, r, nbrs[:0], stats)
		if len(nbrs) >= k+1 {
			dists := make([]float64, 0, len(nbrs))
			for _, nb := range nbrs {
				if nb == i {
					continue
				}
				dists = append(dists, geom.Dist(q, ds.At(nb)))
			}
			sort.Float64s(dists)
			if len(dists) >= k {
				return dists[k-1], nil
			}
		}
		r *= 2
	}
	return 0, fmt.Errorf("kdist: neighbourhood growth did not converge for point %d", i)
}

// initialRadius picks a starting search radius from the bounding box
// diagonal and an assumption of roughly uniform density.
func initialRadius(ds *geom.Dataset) float64 {
	n := ds.Len()
	if n < 2 {
		return 1
	}
	b := ds.Bounds()
	var diag float64
	for j := range b.Min {
		span := b.Max[j] - b.Min[j]
		diag += span * span
	}
	diag = math.Sqrt(diag)
	if diag == 0 {
		return 1
	}
	return diag / math.Pow(float64(n), 1/float64(ds.Dim)) / 4
}

// SuggestEps returns the elbow of the descending k-distance plot via
// the maximum-distance-to-chord method: the index whose point is
// farthest from the line joining the curve's endpoints. Returns the
// suggested eps and the fraction of points left of the elbow (an
// estimate of the noise fraction).
func SuggestEps(kdists []float64) (eps float64, noiseFrac float64, err error) {
	n := len(kdists)
	if n < 3 {
		return 0, 0, fmt.Errorf("kdist: need >= 3 points, got %d", n)
	}
	sorted := append([]float64(nil), kdists...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	x1, y1 := 0.0, sorted[0]
	x2, y2 := float64(n-1), sorted[n-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return sorted[0], 0, nil
	}
	bestIdx, bestDist := 0, -1.0
	for i := 0; i < n; i++ {
		d := math.Abs(dy*float64(i)-dx*sorted[i]+x2*y1-y2*x1) / norm
		if d > bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return sorted[bestIdx], float64(bestIdx) / float64(n), nil
}
