package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
)

// mergeParallel is the canonical merge executed on
// opts.effectiveWorkers() real goroutines. Every pass shards the partial-cluster slice (or the
// point range) into contiguous chunks with a barrier between passes:
//
//	receive ─ masterOf build ─ edge scan (concurrent DSU) ─ Find all
//	  ─ per-shard min-core maps ─ [serial: reduce + sort components]
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
// every worker count no matter how the shards interleave. The only
// genuinely sequential step — sorting the merged components by their
// canonical core index — is metered into SerialWork so the pricing
// model charges it at full cost.
func mergeParallel(partials []PartialCluster, n int, opts MergeOptions) *GlobalResult {
	workers := opts.effectiveWorkers()
	res := &GlobalResult{
		Labels:             make([]int32, n),
		NumPartialClusters: len(partials),
	}
	w := &res.Work

	// Accumulator reception: the per-cluster deserialization constant
	// (see Merge). Each shard rebuilds its own clusters' object graphs,
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

	parallelDo(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			res.Labels[i] = dbscan.Noise
		}
	})
	if m == 0 {
		res.NumNoise = n
		return res
	}

	// ops collects the metered MergeOps of the sharded passes; each
	// shard sums locally and adds once, so the total is exact and
	// schedule-independent.
	var ops atomic.Int64

	// Index: point -> partial cluster owning it as a regular member.
	// Disjoint writes: a point is a Member of at most one partial.
	masterOf := make([]int32, n)
	parallelDo(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			masterOf[i] = -1
		}
	})
	parallelDo(workers, m, func(_, lo, hi int) {
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
	parallelDo(workers, m, func(_, lo, hi int) {
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
	parallelDo(workers, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			componentOf[i] = d.Find(int32(i))
		}
	})

	// Canonical component ids: minimum Members[0] per component, reduced
	// shard-locally then merged (min is commutative and associative, so
	// the reduction tree doesn't matter).
	partMin := make([]map[int32]int32, workers)
	parallelDo(workers, m, func(k, lo, hi int) {
		local := make(map[int32]int32)
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
		partMin[k] = local
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
	parallelDo(workers, m, func(_, lo, hi int) {
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
	// label is the same whichever shard claims first.
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
	parallelDo(workers, m, func(_, lo, hi int) {
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
	parallelDo(workers, n, func(_, lo, hi int) {
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

// parallelDo splits [0, n) into up to `workers` contiguous shards and
// runs fn(shard, lo, hi) for each on its own goroutine, returning after
// all shards complete (the barrier between merge passes). The shard
// index is always < workers.
func parallelDo(workers, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := k*n/workers, (k+1)*n/workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}
