package core

import (
	"sort"
	"sync/atomic"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/par"
)

// mergeGrain is how many points or partial clusters a merge worker
// claims per step of par.For's cursor.
const mergeGrain = 1024

// mergeParallel is the canonical merge executed on
// opts.effectiveWorkers() real goroutines. Every pass is one par.For
// over the partial-cluster slice (or the point range), which returns
// only once the pass is done — the barrier between passes:
//
//	receive ─ masterOf build ─ edge scan (concurrent DSU) ─ Find all
//	  ─ per-worker min-core maps ─ [serial: reduce + sort components]
//	  ─ member paint ─ seed/border claims (atomic min-CAS) ─ noise scan
//
// Determinism argument, pass by pass: Members are disjoint across
// partials under SeedExact, so masterOf writes and member paints never
// collide; the concurrent DSU's final partition (and even its
// representatives — min-element roots) is schedule-independent, and
// NumMerges = m − Sets() counts exactly the pairs united regardless of
// which goroutine's Union won each race; border/seed claims take the
// minimum claiming label via CAS, and min is commutative; all metered
// counts are per-item sums, so the Work ledger is byte-identical at
// every worker count no matter which worker runs which block. The
// only genuinely sequential step — sorting the merged components by
// their canonical core index — is metered into SerialWork so the
// pricing model charges it at full cost.
func mergeParallel(partials []PartialCluster, n int, opts MergeOptions) *GlobalResult {
	workers := opts.effectiveWorkers()
	res := &GlobalResult{
		Labels:             make([]int32, n),
		NumPartialClusters: len(partials),
	}
	w := &res.Work

	// Accumulator reception: the per-cluster deserialization constant
	// (see Merge). Each worker rebuilds its own clusters' object graphs,
	// so the receive parallelizes with the rest.
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

	par.For(n, mergeGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			res.Labels[i] = dbscan.Noise
		}
	})
	if m == 0 {
		res.NumNoise = n
		return res
	}

	// ops collects the metered MergeOps of the parallel passes; each
	// block sums locally and adds once, so the total is exact and
	// schedule-independent.
	var ops atomic.Int64

	// Index: point -> partial cluster owning it as a regular member.
	// Disjoint writes: a point is a Member of at most one partial.
	masterOf := make([]int32, n)
	par.For(n, mergeGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			masterOf[i] = -1
		}
	})
	par.For(m, mergeGrain, workers, func(_, lo, hi int) {
		var local int64
		for ci := lo; ci < hi; ci++ {
			for _, pt := range partials[ci].Members {
				masterOf[pt] = int32(ci)
				local++
			}
		}
		ops.Add(local)
	})

	// Seed-graph edge scan over the concurrent forest. NumMerges is
	// derived from the surviving set count rather than per-Union return
	// values so it cannot depend on which goroutine won a racing Union.
	d := dsu.NewConcurrent(m)
	par.For(m, mergeGrain, workers, func(_, lo, hi int) {
		var local int64
		for ci := lo; ci < hi; ci++ {
			for _, s := range partials[ci].Seeds {
				local++
				master := masterOf[s]
				if master >= 0 && master != int32(ci) {
					d.Union(int32(ci), master)
				}
			}
		}
		ops.Add(local)
	})
	res.NumMerges = m - d.Sets()

	componentOf := make([]int32, m)
	par.For(m, mergeGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			componentOf[i] = d.Find(int32(i))
		}
	})

	// Canonical component ids: minimum Members[0] per component, reduced
	// into each worker's map across its blocks, then merged (min is
	// commutative and associative, so the reduction tree doesn't matter).
	partMin := make([]map[int32]int32, workers)
	par.For(m, mergeGrain, workers, func(k, lo, hi int) {
		if partMin[k] == nil {
			partMin[k] = make(map[int32]int32)
		}
		local := partMin[k]
		var cnt int64
		for ci := lo; ci < hi; ci++ {
			if len(partials[ci].Members) == 0 {
				continue // defensive: SeedExact never emits memberless partials
			}
			comp := componentOf[ci]
			start := partials[ci].Members[0]
			if cur, ok := local[comp]; !ok || start < cur {
				local[comp] = start
			}
			cnt++
		}
		ops.Add(cnt)
	})
	minCore := make(map[int32]int32, len(partMin[0]))
	for _, local := range partMin {
		for comp, start := range local {
			if cur, ok := minCore[comp]; !ok || start < cur {
				minCore[comp] = start
			}
		}
	}

	// The serial residue: numbering components by ascending canonical
	// core index is one sort over all components — it stays on a single
	// driver core and is metered into SerialWork as well.
	type compStart struct{ comp, start int32 }
	order := make([]compStart, 0, len(minCore))
	for comp, start := range minCore {
		order = append(order, compStart{comp, start})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].start < order[j].start })
	sc := sortCost(len(order))
	w.SortComps += sc
	res.SerialWork.SortComps += sc
	compLabel := make(map[int32]int32, len(order))
	for i, cs := range order {
		compLabel[cs.comp] = int32(i)
	}
	res.NumClusters = len(order)

	// Cores: every member belongs to exactly one partial — disjoint
	// plain writes, no synchronization needed within the pass.
	par.For(m, mergeGrain, workers, func(_, lo, hi int) {
		var local int64
		for ci := lo; ci < hi; ci++ {
			lbl, ok := compLabel[componentOf[ci]]
			if !ok {
				continue
			}
			for _, pt := range partials[ci].Members {
				res.Labels[pt] = lbl
				local++
			}
		}
		ops.Add(local)
	})

	// Borders (and seeds not owned as members anywhere): minimum
	// claiming label via CAS loop. Min-claims commute, so the final
	// label is the same whichever worker claims first.
	claim := func(pt, lbl int32) {
		addr := &res.Labels[pt]
		for {
			cur := atomic.LoadInt32(addr)
			if cur != dbscan.Noise && cur <= lbl {
				return
			}
			if atomic.CompareAndSwapInt32(addr, cur, lbl) {
				return
			}
		}
	}
	par.For(m, mergeGrain, workers, func(_, lo, hi int) {
		var local int64
		for ci := lo; ci < hi; ci++ {
			lbl, ok := compLabel[componentOf[ci]]
			if !ok {
				continue
			}
			for _, pt := range partials[ci].Seeds {
				local++
				if masterOf[pt] < 0 {
					claim(pt, lbl)
				}
			}
			for _, pt := range partials[ci].Borders {
				local++
				claim(pt, lbl)
			}
		}
		ops.Add(local)
	})

	// Final label scan for the noise count.
	var noise atomic.Int64
	par.For(n, mergeGrain, workers, func(_, lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			if res.Labels[i] == dbscan.Noise {
				local++
			}
		}
		noise.Add(local)
	})
	res.NumNoise = int(noise.Load())
	w.MergeOps += int64(n)

	w.MergeOps += ops.Load()
	return res
}
