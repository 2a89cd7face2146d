// Package pdsdbscan implements the disjoint-set parallel DBSCAN of
// Patwary et al. ("A new scalable parallel DBSCAN algorithm using the
// disjoint-set data structure", SC 2012) — the shared-memory comparator
// the paper validates its clustering output against ("After comparing
// with the results from Patwary et al. we find that our results match
// them").
//
// The algorithm avoids the sequential BFS entirely: it computes core
// flags for all points, then builds clusters as connected components in
// a union-find forest — core-core edges union their trees, and each
// border point attaches to the first core tree that claims it. Both
// phases parallelize over point ranges with goroutines; the union phase
// synchronizes through the lock-free concurrent disjoint-set of
// internal/dsu (where Patwary et al. lock the two roots).
//
// Its inclusion gives the repository a second, structurally different
// parallel baseline: where the paper's Spark algorithm pays for
// isolation with SEED bookkeeping and a driver merge, PDSDBSCAN pays
// with fine-grained synchronization on shared memory. The comparison
// bench quantifies the difference in metered work.
package pdsdbscan

import (
	"fmt"
	"runtime"
	"sync"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
)

// Config configures a run.
type Config struct {
	Params dbscan.Params
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
}

// Result is a finished run.
type Result struct {
	Labels      []int32
	Core        []bool
	NumClusters int
	NumNoise    int
	// Work meters the computation for cost-model comparisons.
	Work simtime.Work
	// Stats aggregates the index work.
	Stats kdtree.SearchStats
}

// Run executes PDSDBSCAN over ds.
func Run(ds *geom.Dataset, idx kdtree.Index, cfg Config) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	n := ds.Len()
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	res := &Result{
		Labels: make([]int32, n),
		Core:   make([]bool, n),
	}
	for i := range res.Labels {
		res.Labels[i] = dbscan.Noise
	}
	if n == 0 {
		return res, nil
	}

	eps, minPts := cfg.Params.Eps, cfg.Params.MinPts
	forest := dsu.NewConcurrent(n)
	// borderOwner[i] is the core point that claimed border i, or -1.
	borderOwner := make([]int32, n)
	for i := range borderOwner {
		borderOwner[i] = -1
	}
	var ownerMu sync.Mutex

	type shard struct {
		stats kdtree.SearchStats
		work  simtime.Work
	}
	shards := make([]shard, workers)
	parallelRanges := func(f func(sh *shard, lo, hi int32)) {
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			lo := int32(wi * n / workers)
			hi := int32((wi + 1) * n / workers)
			wg.Add(1)
			go func(sh *shard, lo, hi int32) {
				defer wg.Done()
				f(sh, lo, hi)
			}(&shards[wi], lo, hi)
		}
		wg.Wait()
	}

	// Phase 1: core flags, embarrassingly parallel (one counting query
	// per point).
	parallelRanges(func(sh *shard, lo, hi int32) {
		for x := lo; x < hi; x++ {
			if idx.RadiusCount(ds.At(x), eps, &sh.stats) >= minPts {
				res.Core[x] = true
			}
		}
	})

	// Phase 2: unions. Every core re-queries its neighbourhood; core
	// neighbours union (each edge is attempted from both endpoints,
	// which is idempotent), non-core neighbours are claimed as borders
	// by the first core that reaches them.
	parallelRanges(func(sh *shard, lo, hi int32) {
		var neighbors []int32
		for x := lo; x < hi; x++ {
			if !res.Core[x] {
				continue
			}
			neighbors = idx.Radius(ds.At(x), eps, neighbors[:0], &sh.stats)
			sh.work.QueueOps += int64(len(neighbors))
			for _, y := range neighbors {
				sh.work.HashOps++
				if y == x {
					continue
				}
				if res.Core[y] {
					forest.Union(x, y)
					sh.work.MergeOps++
				} else {
					ownerMu.Lock()
					if borderOwner[y] == -1 {
						borderOwner[y] = x
					}
					ownerMu.Unlock()
				}
			}
		}
	})

	for i := range shards {
		res.Stats.Add(shards[i].stats)
		res.Work.Add(shards[i].work)
		res.Work.KDNodes += shards[i].stats.NodesVisited
		res.Work.KDIncluded += shards[i].stats.NodesIncluded
		res.Work.DistComps += shards[i].stats.DistComps
	}

	// Relabel: every core tree becomes a cluster; borders inherit their
	// claiming core's cluster.
	next := int32(0)
	rootLabel := make(map[int32]int32)
	for i := int32(0); i < int32(n); i++ {
		if !res.Core[i] {
			continue
		}
		root := forest.Find(i)
		lbl, ok := rootLabel[root]
		if !ok {
			lbl = next
			rootLabel[root] = lbl
			next++
		}
		res.Labels[i] = lbl
		res.Work.MergeOps++
	}
	for i := int32(0); i < int32(n); i++ {
		if res.Core[i] || borderOwner[i] == -1 {
			continue
		}
		res.Labels[i] = res.Labels[borderOwner[i]]
		res.Work.MergeOps++
	}
	res.NumClusters = int(next)
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			res.NumNoise++
		}
	}
	return res, nil
}

// String describes the configuration compactly for reports.
func (c Config) String() string {
	return fmt.Sprintf("pdsdbscan(eps=%g,minpts=%d,workers=%d)", c.Params.Eps, c.Params.MinPts, c.Workers)
}
