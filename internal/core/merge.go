package core

import (
	"cmp"
	"fmt"
	"slices"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/simtime"
)

// MergeAlgo selects the driver-side merge strategy. Run derives the
// seed mode from it: MergePaper consumes SeedSingle partials,
// MergeParallel SeedExact partials.
type MergeAlgo int

const (
	// MergeParallel is the default, exact merge. It unions the partial
	// clusters linked by seeds in a concurrent union-find and labels
	// canonically: components are numbered by their globally
	// lowest-index core point (each SeedExact partial's Members[0])
	// ascending, and border points take the *minimum* label among all
	// clusters claiming them. Over SeedExact partials this reproduces
	// sequential DBSCAN's labels byte for byte — sequential numbers
	// clusters by lowest core index too, and expands whole clusters in
	// label order, so a shared border always keeps the lowest claiming
	// label — and it is independent of the order partials arrive in.
	// Canonical labeling is a pure function of the partial-cluster set
	// (min/sort over commutative reductions), which is what lets it
	// shard the accumulator receive, the masterOf index build, the
	// seed-graph edge scan and the label-painting passes across
	// MergeOptions.Workers real goroutines; the phase is priced in
	// simtime under that many driver cores. Labels, NumMerges and the
	// metered Work are identical at every worker count. See DESIGN.md
	// §13–§14.
	MergeParallel MergeAlgo = iota
	// MergePaper is Algorithm 4 exactly as printed: a single pass over
	// partial clusters with unfinished/finished statuses, each seed
	// pulling its master cluster into the current one, and labels
	// painted in order of first appearance over the partials sorted by
	// (Partition, Seq). It can miss transitive merges (see the merge
	// ablation and its tests); it is kept as the paper's ablation arm.
	MergePaper
)

func (m MergeAlgo) String() string {
	switch m {
	case MergeParallel:
		return "parallel"
	case MergePaper:
		return "paper"
	default:
		return fmt.Sprintf("MergeAlgo(%d)", int(m))
	}
}

// perClusterReceiveOps prices the driver-side deserialization of one
// partial-cluster object arriving through the accumulator, in MergeOp
// units (~8 ms per cluster under the default model).
const perClusterReceiveOps = 6700

// DefaultMergeWorkers is the driver-core count MergeParallel uses when
// MergeOptions.Workers is zero. A fixed constant rather than
// runtime.NumCPU() so simulated timings are machine-independent.
const DefaultMergeWorkers = 4

// MergeOptions configures the driver merge.
type MergeOptions struct {
	Algo MergeAlgo
	// MinPartialClusterSize drops partial clusters smaller than this
	// before merging — the paper's r1m filter ("we filter out those
	// partial clusters whose size is too small"). 0 keeps everything.
	MinPartialClusterSize int
	// Workers is the driver-core count MergeParallel shards across:
	// both the real goroutines that execute the merge and the core
	// count the phase is priced under in simtime. 0 selects
	// DefaultMergeWorkers. Ignored by MergePaper.
	Workers int
}

// effectiveWorkers returns the driver-core count the merge phase runs
// (and is priced) under: 1 for MergePaper.
func (o MergeOptions) effectiveWorkers() int {
	if o.Algo == MergePaper {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultMergeWorkers
}

// GlobalResult is the final clustering assembled by the driver.
type GlobalResult struct {
	// Labels assigns every point a cluster id in [0, NumClusters) or
	// dbscan.Noise.
	Labels      []int32
	NumClusters int
	NumNoise    int
	// NumPartialClusters is the pre-merge count (the m the paper plots
	// in Figure 6).
	NumPartialClusters int
	// NumMerges counts partial-cluster pairs united during the merge.
	NumMerges int
	// DroppedPartials counts partial clusters removed by the size
	// filter.
	DroppedPartials int
	// Work is the metered driver-side merge cost (the paper's O(n+Km)
	// term).
	Work simtime.Work
	// SerialWork is the sub-ledger of Work that cannot leave one driver
	// core — the input to simtime's ParallelSeconds pricing. For
	// MergePaper it equals Work (everything is serial); for
	// MergeParallel it is the single-threaded residue between the
	// sharded passes (the canonical component sort).
	SerialWork simtime.Work
}

// Merge combines the executors' partial clusters into global clusters
// over n points. The body below is MergePaper's; MergeParallel lives in
// merge_parallel.go.
func Merge(partials []PartialCluster, n int, opts MergeOptions) *GlobalResult {
	if opts.Algo != MergePaper {
		return mergeParallel(partials, n, opts)
	}
	// Algorithm 4 numbers clusters by first appearance, so its labels
	// depend on input order. Tasks commit to the accumulator in
	// host-scheduling order; sorting by (Partition, Seq) makes the
	// labels a function of the partial-cluster set, for a normal run
	// and a journal replay alike. The sort is left uncharged: it only
	// restores the order a one-worker host already commits in, so the
	// paper pair's simulated timings do not move.
	partials = slices.Clone(partials)
	slices.SortFunc(partials, func(a, b PartialCluster) int { return cmp.Compare(a.ID(), b.ID()) })
	res := &GlobalResult{
		Labels:             make([]int32, n),
		NumPartialClusters: len(partials),
	}
	for i := range res.Labels {
		res.Labels[i] = dbscan.Noise
	}
	w := &res.Work

	// Accumulator reception: before anything can be merged or
	// filtered, the driver deserializes every partial-cluster object
	// shipped back by the executors. The per-cluster constant dominates
	// the per-element cost in a JVM (object graph allocation, boxing);
	// it is what makes the paper's driver time climb from 121 s to
	// 2226 s as the partial-cluster count grows from 720 to 9279
	// (Fig. 6c) and what caps the total-time speedup at 32 cores
	// (Fig. 8d). Executor-side filtering (LocalOptions.MinClusterSize)
	// avoids this cost; the driver-side filter below does not.
	w.MergeOps += int64(len(partials)) * perClusterReceiveOps

	if opts.MinPartialClusterSize > 1 {
		kept := partials[:0:0]
		for _, pc := range partials {
			if pc.Size() >= opts.MinPartialClusterSize {
				kept = append(kept, pc)
			} else {
				res.DroppedPartials++
			}
		}
		partials = kept
	}
	m := len(partials)
	if m == 0 {
		res.NumNoise = n
		res.SerialWork = res.Work
		return res
	}

	// Index: point -> partial cluster owning it as a *regular member*
	// ("find master partial cluster index", Algorithm 4 line 5).
	masterOf := make([]int32, n)
	for i := range masterOf {
		masterOf[i] = -1
	}
	for ci := range partials {
		for _, pt := range partials[ci].Members {
			masterOf[pt] = int32(ci)
			w.MergeOps++
		}
	}

	componentOf := mergePaper(partials, masterOf, res)

	// Assemble labels: relabel components densely in order of first
	// appearance, then paint members, seeds and borders (seeds are
	// elements of the merged cluster, Figure 4b). First writer wins on
	// conflicts, mirroring sequential DBSCAN's first-come border
	// assignment.
	compLabel := make(map[int32]int32, m)
	next := int32(0)
	paint := func(pt int32, comp int32) {
		w.MergeOps++
		if res.Labels[pt] != dbscan.Noise {
			return
		}
		lbl, ok := compLabel[comp]
		if !ok {
			lbl = next
			compLabel[comp] = lbl
			next++
		}
		res.Labels[pt] = lbl
	}
	for ci := range partials {
		comp := componentOf[ci]
		for _, pt := range partials[ci].Members {
			paint(pt, comp)
		}
	}
	for ci := range partials {
		comp := componentOf[ci]
		for _, pt := range partials[ci].Seeds {
			paint(pt, comp)
		}
		for _, pt := range partials[ci].Borders {
			paint(pt, comp)
		}
	}
	res.NumClusters = int(next)
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			res.NumNoise++
		}
	}
	w.MergeOps += int64(n) // final label scan
	res.SerialWork = res.Work
	return res
}

// mergePaper is Algorithm 4 verbatim: one pass, current cluster absorbs
// each seed's master cluster, statuses flip from unfinished to
// finished. Seeds discovered through absorption are not re-chased in
// the same pass — that is the algorithm as printed, and the tests
// demonstrate the transitive chains it misses.
func mergePaper(partials []PartialCluster, masterOf []int32, res *GlobalResult) []int32 {
	comp := make([]int32, len(partials))
	for i := range comp {
		comp[i] = int32(i)
	}
	finished := make([]bool, len(partials))
	find := func(c int32) int32 {
		for comp[c] != c {
			c = comp[c]
		}
		return c
	}
	for ci := range partials {
		if finished[ci] {
			continue
		}
		for _, s := range partials[ci].Seeds {
			res.Work.MergeOps++
			master := masterOf[s]
			if master < 0 || master == int32(ci) {
				continue
			}
			// "Merge current with master cluster" (line 6). If the
			// master was already absorbed into another cluster, its
			// elements live at its representative, so the union targets
			// that representative. What stays single-pass — and what
			// makes this weaker than MergeParallel's union-find — is that a
			// finished cluster's *own seeds* are never chased (the
			// outer status check at line 2 skips it).
			root := find(int32(ci))
			mroot := find(master)
			if root != mroot {
				comp[mroot] = root
				res.NumMerges++
			}
			finished[master] = true
		}
		finished[ci] = true
	}
	for i := range comp {
		comp[i] = find(int32(i))
	}
	return comp
}
