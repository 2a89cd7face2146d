package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
)

// LocalOptions configures the per-executor clustering.
type LocalOptions struct {
	Params dbscan.Params
	// SeedMode selects the Algorithm 3 variant (see SeedMode docs).
	SeedMode SeedMode
	// MaxNeighbors, when > 0, caps every range query ("kd-tree with
	// pruning branches", enabled by the paper for the 1m-point runs).
	MaxNeighbors int
	// MinClusterSize, when > 1, drops partial clusters smaller than
	// this before they are sent to the driver — the paper's r1m filter
	// ("we filter out those partial clusters whose size is too small,
	// and their removal does not impact the accuracy significantly").
	// Filtering on the executor also avoids the driver's per-cluster
	// reception cost.
	MinClusterSize int
}

// LocalResult is what one executor produces for its partition: the
// partial clusters plus the metered work the task performed.
type LocalResult struct {
	Partition int
	Clusters  []PartialCluster
	// LocalNoise counts owned points that started no cluster and were
	// claimed by none (they may still be claimed by another
	// partition's cluster as a seed/border).
	LocalNoise int
	// DroppedClusters counts partial clusters removed by the
	// MinClusterSize filter (their members revert to local noise).
	DroppedClusters int
	Stats           kdtree.SearchStats
	Work            simtime.Work
}

// LocalDBSCAN runs Algorithm 2's executor closure for one partition:
// cluster exactly the points in part.Range(split), querying idx (built
// over the full dataset) for neighbourhoods, never expanding foreign
// points, and placing SEEDs per opts.SeedMode (Algorithm 3). The exact
// pair on a *kdtree.Tree whose Order()[lo:hi] is a permutation of the
// partition's range [lo, hi) — a run of a leaf-ordered tree — answers
// the partition in RadiusBlock blocks (see clusterRange); every other
// call queries once per point.
func LocalDBSCAN(ds *geom.Dataset, idx kdtree.Index, part Partitioner, split int,
	opts LocalOptions) (*LocalResult, error) {
	return localDBSCAN(ds, idx, part, split, opts, new(neighborTable))
}

// localDBSCAN is LocalDBSCAN with the caller's neighbour table, which
// it reuses for the block pass.
func localDBSCAN(ds *geom.Dataset, idx kdtree.Index, part Partitioner, split int,
	opts LocalOptions, tab *neighborTable) (*LocalResult, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if split < 0 || split >= part.Parts() {
		return nil, fmt.Errorf("core: split %d out of range [0,%d)", split, part.Parts())
	}
	lo, hi := part.Range(split)
	res := &LocalResult{Partition: split}
	var leaf []int32
	if tree := blockTree(idx, opts); tree != nil && int(hi) <= tree.Size() {
		leaf = tree.Order()[lo:hi]
		for _, p := range leaf {
			if p < lo || p >= hi {
				leaf = nil
				break
			}
		}
	}
	clusterRange(ds, idx, lo, hi, part, opts, res, leaf, tab)
	return res, nil
}

// blockTree returns idx as a *kdtree.Tree when the partition may be
// answered from a RadiusBlock neighbour table: the exact pair's
// SeedExact partials with no MaxNeighbors cap. The paper pair, capped
// runs and other indexes keep one Radius or RadiusLimit per point.
func blockTree(idx kdtree.Index, opts LocalOptions) *kdtree.Tree {
	if opts.SeedMode != SeedExact || opts.MaxNeighbors > 0 {
		return nil
	}
	tree, _ := idx.(*kdtree.Tree)
	return tree
}

// neighborTable holds the eps-neighbourhoods of one partition's owned
// points, answered kdtree.BlockSize at a time by RadiusBlock: owned
// point lo+i's neighbours are ids[start[i]:end[i]], in leaf order. Its
// buffers only grow, so an executor that reuses one table across its
// partitions stops allocating once it has met the largest. leaf is
// scratch for callers that filter a tree's order into owned points.
type neighborTable struct {
	blk        kdtree.Block
	ids        []int32
	start, end []int
	leaf       []int32
}

// fill answers every point of leaf — the owned points [lo, lo+len(leaf))
// of tree's dataset, in the tree's leaf order — and stores their lists.
func (t *neighborTable) fill(tree *kdtree.Tree, leaf []int32, lo int32, eps float64, stats *kdtree.SearchStats) {
	n := len(leaf)
	t.ids = t.ids[:0]
	t.start = slices.Grow(t.start[:0], n)[:n]
	t.end = slices.Grow(t.end[:0], n)[:n]
	for b := 0; b < n; b += kdtree.BlockSize {
		pts := leaf[b:min(b+kdtree.BlockSize, n)]
		tree.RadiusBlock(pts, eps, &t.blk, stats)
		for k, p := range pts {
			t.start[p-lo] = len(t.ids)
			t.ids = append(t.ids, t.blk.Neighbors(k)...)
			t.end[p-lo] = len(t.ids)
		}
	}
}

// of returns owned point lo+i's neighbours.
func (t *neighborTable) of(i int32) []int32 { return t.ids[t.start[i]:t.end[i]] }

// seenStamps is a per-point stamp array that SeedExact calls of
// clusterRange pass on to each other through seenPool. base is the last
// stamp written into stamp.
type seenStamps struct {
	stamp []int32
	base  int32
}

var seenPool sync.Pool

// takeSeenStamps returns stamps for n points with room for clusters
// more stamps above base, clearing only when the stamps would wrap.
func takeSeenStamps(n int, clusters int32) *seenStamps {
	s, _ := seenPool.Get().(*seenStamps)
	if s == nil || len(s.stamp) < n {
		return &seenStamps{stamp: make([]int32, n)}
	}
	if s.base > math.MaxInt32-clusters {
		clear(s.stamp)
		s.base = 0
	}
	return s
}

// clusterRange is the one partition-local DBSCAN both partitioning
// modes run: it clusters the owned points [lo, hi) of ds against idx
// (an index over all of ds), treats every other point as foreign and
// fills res with the partial clusters, local noise, search stats and
// metered work. Partial clusters carry res.Partition and hold indices
// into ds. part is read only by SeedSingle, to place one SEED per
// foreign partition.
//
// leaf, when non-nil, lists the owned points in idx's leaf order, and
// idx is a *kdtree.Tree (see blockTree). clusterRange then answers them
// kdtree.BlockSize at a time with RadiusBlock into tab before expanding
// any cluster, and the expansion reads the stored lists instead of
// querying once per point. Every owned point is queried exactly once
// either way, and the lists hold the same sets, so the partial
// clusters are the same sets; only their order within Members, Seeds
// and Borders and the search stats differ. On leaf-order runs the
// shared descent visits ~94% fewer nodes for ~27% more distances; on a
// scattered subset (the paper's index ranges) its box prunes nothing,
// which is why those keep per-point queries.
func clusterRange(ds *geom.Dataset, idx kdtree.Index, lo, hi int32, part Partitioner,
	opts LocalOptions, res *LocalResult, leaf []int32, tab *neighborTable) {
	local := hi - lo
	if local == 0 {
		return
	}

	// Seed-placement charge per (partial cluster, partition) pair: the
	// paper's cost model adds an O(m*V) term for SEED placement
	// (§IV-C), V being a search-sized cost — Algorithm 3 walks every
	// possible partition per cluster, and placing a seed for a
	// partition costs a pruned neighbourhood search. This term is what
	// bends the paper's executor-only speedup curves (Fig. 8) once the
	// partial-cluster count m explodes with the partition count.
	const (
		seedPlaceNodeVisits = 150
		seedPlaceDistComps  = 200
	)

	eps, minPts := opts.Params.Eps, opts.Params.MinPts
	// visited and clusterOf play the paper's Hashtable role; with a
	// contiguous owned range, offset arrays give the same O(1) with
	// better constants (the map variant is benchmarked in the
	// data-structure ablation).
	visited := make([]bool, local)
	clusterOf := make([]int32, local)
	for i := range clusterOf {
		clusterOf[i] = -1
	}

	// Algorithm 3 per-cluster state, allocation-free across clusters:
	// instead of a fresh map per partial cluster, one epoch-stamped
	// array per mode is allocated up front and "cleared" by bumping the
	// epoch (the cluster's Seq+1, never zero). A slot whose stamp
	// differs from the current epoch is unseen for this cluster.
	exact := opts.SeedMode == SeedExact
	var seedPlaced []int32  // SeedSingle: one stamp per partition
	var foreignSeen []int32 // SeedExact: one stamp per point
	// SeedExact also tracks which owned points proved core, because only
	// cores become Members; reached non-cores go to Borders of every
	// reaching cluster (foreignSeen doubles as the per-cluster dedup
	// stamp for owned borders — it is indexed by global point index).
	// foreignSeen is shared across calls, so its stamp seenEpoch counts
	// on from the last one an earlier call used and it needs no clearing.
	var coreLocal []bool
	var seenEpoch int32
	if exact {
		seen := takeSeenStamps(ds.Len(), local)
		foreignSeen, seenEpoch = seen.stamp, seen.base
		defer func() {
			seen.base = seenEpoch
			seenPool.Put(seen)
		}()
		coreLocal = make([]bool, local)
	} else {
		seedPlaced = make([]int32, part.Parts())
	}

	var queue dbscan.Queue
	// queued stamps an owned point with the epoch of the last cluster
	// whose queue took it, so a point enters each cluster's queue at
	// most once: after its first pop it is visited and recorded, and
	// every later pop of it would change nothing.
	queued := make([]int32, local)
	// neighbors is the single reusable query buffer. Invariant: every
	// read of a query's result (enqueue, the minPts test) happens
	// before the next query call, because query recycles neighbors[:0]
	// and overwrites the previous result in place. The BFS frontier
	// itself lives in queue, which copies the values, so requerying
	// while the frontier is still draining is safe — see
	// TestLocalDBSCANNeighborBufferReuse.
	// The block pass's table lists are never overwritten, so the
	// invariant holds for them trivially.
	var neighbors []int32
	w := &res.Work

	if leaf != nil {
		tab.fill(idx.(*kdtree.Tree), leaf, lo, eps, &res.Stats)
	}
	query := func(p int32) []int32 {
		switch {
		case leaf != nil:
			return tab.of(p - lo)
		case opts.MaxNeighbors > 0:
			return idx.RadiusLimit(ds.At(p), eps, opts.MaxNeighbors, neighbors[:0], &res.Stats)
		}
		return idx.Radius(ds.At(p), eps, neighbors[:0], &res.Stats)
	}

	// pc is the cluster being expanded and epoch its stamp. enqueue
	// reads one core's neighbour list: owned neighbours join the BFS
	// queue, foreign ones get their SEED placed at once (Algorithm 3)
	// and are never expanded. Seeds land in the order a FIFO queue
	// would have popped them. Each foreign neighbour, and each owned
	// one already queued for this cluster, is charged the push and pop
	// of that round trip, so the ledger matches a queue that carried
	// every neighbour.
	var pc PartialCluster
	var epoch int32
	enqueue := func(nbs []int32) {
		pushed := 0
		for _, nb := range nbs {
			if nb >= lo && nb < hi {
				if queued[nb-lo] != epoch {
					queued[nb-lo] = epoch
					queue.Push(nb)
					pushed++
				}
				continue
			}
			if exact {
				if foreignSeen[nb] != seenEpoch {
					foreignSeen[nb] = seenEpoch
					pc.Seeds = append(pc.Seeds, nb)
				}
			} else if owner := part.Owner(nb); seedPlaced[owner] != epoch {
				seedPlaced[owner] = epoch
				pc.Seeds = append(pc.Seeds, nb)
			}
		}
		skipped := int64(len(nbs) - pushed)
		w.QueueOps += int64(len(nbs)) + skipped
		w.HashOps += skipped
	}

	for i := lo; i < hi; i++ {
		li := i - lo
		if visited[li] {
			continue
		}
		visited[li] = true
		w.HashOps++
		neighbors = query(i)
		if len(neighbors) < minPts {
			// Marked noise locally; a later local cluster may still
			// adopt it as a border member.
			continue
		}
		pc = PartialCluster{
			Partition: int32(res.Partition),
			Seq:       int32(len(res.Clusters)),
		}
		clusterOf[li] = pc.Seq
		pc.Members = append(pc.Members, i)
		if coreLocal != nil {
			coreLocal[li] = true
		}
		// Opening a new cluster invalidates the previous cluster's
		// seed/seen stamps in O(1).
		epoch = pc.Seq + 1
		seenEpoch++

		queue.Reset()
		enqueue(neighbors)

		for !queue.Empty() {
			p := queue.Pop()
			w.QueueOps++
			pl := p - lo
			if !visited[pl] {
				visited[pl] = true
				w.HashOps++
				neighbors = query(p)
				if len(neighbors) >= minPts {
					if coreLocal != nil {
						coreLocal[pl] = true
					}
					enqueue(neighbors)
				}
			}
			if exact {
				// Cores join exactly one cluster as Members; non-cores
				// are recorded as Borders by every cluster that reaches
				// them, so the driver can award them canonically.
				if coreLocal[pl] {
					if clusterOf[pl] < 0 {
						clusterOf[pl] = pc.Seq
						pc.Members = append(pc.Members, p)
					}
				} else if foreignSeen[p] != seenEpoch {
					foreignSeen[p] = seenEpoch
					pc.Borders = append(pc.Borders, p)
					if clusterOf[pl] < 0 {
						clusterOf[pl] = pc.Seq // claimed: not local noise
					}
				}
			} else if clusterOf[pl] < 0 {
				clusterOf[pl] = pc.Seq
				pc.Members = append(pc.Members, p)
			}
			w.HashOps++
		}
		res.Clusters = append(res.Clusters, pc)
		if !exact {
			w.KDNodes += int64(part.Parts()) * seedPlaceNodeVisits
			w.DistComps += int64(part.Parts()) * seedPlaceDistComps
		}
	}

	if opts.MinClusterSize > 1 {
		kept := res.Clusters[:0:0]
		for _, pc := range res.Clusters {
			if pc.Size() >= opts.MinClusterSize {
				kept = append(kept, pc)
				continue
			}
			res.DroppedClusters++
			for _, m := range pc.Members {
				clusterOf[m-lo] = -1
			}
		}
		res.Clusters = kept
	}

	for _, c := range clusterOf {
		if c < 0 {
			res.LocalNoise++
		}
	}
	// Fold the index work into the ledger.
	w.KDNodes += res.Stats.NodesVisited
	w.DistComps += res.Stats.DistComps
}
