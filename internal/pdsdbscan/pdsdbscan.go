// Package pdsdbscan is the repository's exact shared-memory parallel
// DBSCAN: the disjoint-set formulation of Patwary et al. ("A new
// scalable parallel DBSCAN algorithm using the disjoint-set data
// structure", SC 2012), the comparator the paper validates its
// clustering output against, made deterministic with the core-flag
// argument of Wang, Gu and Shun (arXiv:1912.06255). Its labels and core
// flags equal sequential dbscan.Run's byte for byte at any worker
// count, so the live layer's reconcile runs on it.
//
// The engine makes one pass over the kd-tree's leaf order, in
// fixed-size chunks that Workers goroutines pull from par.For's cursor.
// Each run of kdtree.BlockSize leaf-order points shares one
// kdtree.RadiusBlock descent; a point's neighbour count is the length
// of its result. A core point publishes its flag, then unions
// with every neighbour whose flag is already set. Go's atomics are
// sequentially consistent, so of two adjacent cores that race, at
// least one sees the other's flag: every core–core edge is unioned
// exactly as if the cores had been processed one at a time.
//
// Numbering then follows the sequential BFS. dsu.Concurrent's
// quiescent root is its set's minimum index, which for a core component
// is its lowest core — the point where dbscan.Run starts that cluster —
// so ranking roots by index reproduces its cluster ids. A border point
// takes the lowest id among its adjacent clusters, the first cluster
// whose expansion reaches it in the sequential run; that costs one more
// query per non-core point that has a neighbour besides itself, again
// in shared blocks. Only neighbour sets matter, never their order.
package pdsdbscan

import (
	"fmt"
	"sync/atomic"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/par"
	"sparkdbscan/internal/simtime"
)

// chunkPts is how many consecutive leaf-order points a worker claims
// per cursor step: two default-size leaves and eight query blocks, so
// a claim keeps its queries within one region of the tree while the
// cursor still hands out hundreds of claims per 100k points to balance
// uneven density. A multiple of kdtree.BlockSize, so the blocks do not
// depend on which worker claims what.
const chunkPts = 256

// Config configures a run.
type Config struct {
	Params dbscan.Params
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
}

// Result is a finished run.
type Result struct {
	// Labels, Core, NumClusters and NumNoise equal dbscan.Run's.
	Labels      []int32
	Core        []bool
	NumClusters int
	NumNoise    int
	// Counts holds every point's eps-neighbourhood size, the point
	// itself included.
	Counts []int32
	// Work meters the computation for cost-model comparisons.
	Work simtime.Work
	// Stats aggregates the index work.
	Stats kdtree.SearchStats
}

// shard is one worker's private tally and scratch, indexed by par.For's
// worker index and merged after the passes.
type shard struct {
	stats kdtree.SearchStats
	work  simtime.Work
	blk   kdtree.Block
	pts   []int32
}

// Run clusters ds, which tree must index.
func Run(ds *geom.Dataset, tree *kdtree.Tree, cfg Config) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return nil, fmt.Errorf("pdsdbscan: %w", err)
	}
	n := ds.Len()
	if tree.Size() != n {
		return nil, fmt.Errorf("pdsdbscan: tree over %d points, dataset has %d", tree.Size(), n)
	}
	res := &Result{
		Labels: make([]int32, n),
		Core:   make([]bool, n),
		Counts: make([]int32, n),
	}
	eps, minPts := cfg.Params.Eps, cfg.Params.MinPts
	shards := make([]shard, par.Workers(cfg.Workers))
	forest := dsu.NewConcurrent(n)
	flags := make([]atomic.Bool, n)

	// Pass 1: count, flag cores, union core–core edges.
	inBlocks(shards, tree, eps, nil, func(sh *shard, x int32, nbrs []int32) {
		res.Counts[x] = int32(len(nbrs))
		sh.work.QueueOps += int64(len(nbrs))
		if len(nbrs) < minPts {
			return
		}
		flags[x].Store(true)
		for _, y := range nbrs {
			sh.work.HashOps++
			// Only successful unions are metered: their number is
			// cores minus components whatever the thread timing.
			if y != x && flags[y].Load() && forest.Union(x, y) {
				sh.work.MergeOps++
			}
		}
	})

	// Cluster ids in order of each component's lowest core, which is
	// its root; a root precedes every other member, so its id is set
	// by the time they look it up.
	next := int32(0)
	for i := range res.Labels {
		res.Labels[i] = dbscan.Noise
		if !flags[i].Load() {
			continue
		}
		res.Core[i] = true
		if r := forest.Find(int32(i)); int(r) == i {
			res.Labels[i] = next
			next++
		} else {
			res.Labels[i] = res.Labels[r]
		}
		res.Work.MergeOps++
	}
	res.NumClusters = int(next)

	// Pass 2: each border joins its lowest-numbered adjacent cluster.
	// Workers write only non-core labels and read only core ones.
	border := func(x int32) bool { return !res.Core[x] && res.Counts[x] >= 2 }
	inBlocks(shards, tree, eps, border, func(sh *shard, x int32, nbrs []int32) {
		sh.work.QueueOps += int64(len(nbrs))
		best := dbscan.Noise
		for _, y := range nbrs {
			sh.work.HashOps++
			if res.Core[y] && (best == dbscan.Noise || res.Labels[y] < best) {
				best = res.Labels[y]
			}
		}
		res.Labels[x] = best
	})

	for i := range shards {
		st := shards[i].stats
		res.Stats.Add(st)
		res.Work.Add(shards[i].work)
		res.Work.KDNodes += st.NodesVisited
		res.Work.DistComps += st.DistComps
	}
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			res.NumNoise++
		}
	}
	return res, nil
}

// Census returns every point's eps-neighbourhood size, the point itself
// included: one block query per run of tree's leaf order, split over
// GOMAXPROCS goroutines. tree must index ds.
func Census(ds *geom.Dataset, tree *kdtree.Tree, eps float64) []int32 {
	counts := make([]int32, ds.Len())
	inBlocks(make([]shard, par.Workers(0)), tree, eps, nil, func(_ *shard, x int32, nbrs []int32) {
		counts[x] = int32(len(nbrs))
	})
	return counts
}

// inBlocks calls f(sh, x, nbrs) for every point x of tree's leaf order
// that keep accepts (nil keeps all), nbrs being x's eps-neighbourhood.
// The kept points of each kdtree.BlockSize run share one RadiusBlock
// call. Chunks of chunkPts points go to at most len(shards) workers,
// worker w tallying into shards[w].
func inBlocks(shards []shard, tree *kdtree.Tree, eps float64, keep func(int32) bool, f func(sh *shard, x int32, nbrs []int32)) {
	order := tree.Order()
	par.For(len(order), chunkPts, len(shards), func(w, lo, hi int) {
		sh := &shards[w]
		for b := lo; b < hi; b += kdtree.BlockSize {
			pts := order[b:min(b+kdtree.BlockSize, hi)]
			if keep != nil {
				sh.pts = sh.pts[:0]
				for _, x := range pts {
					if keep(x) {
						sh.pts = append(sh.pts, x)
					}
				}
				pts = sh.pts
			}
			tree.RadiusBlock(pts, eps, &sh.blk, &sh.stats)
			for k, x := range pts {
				f(sh, x, sh.blk.Neighbors(k))
			}
		}
	})
}
