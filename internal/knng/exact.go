package knng

import (
	"runtime"
	"sync"

	"sparkdbscan/internal/geom"
)

// queryBlock is how many query points one worker claims at a time.
// Blocks keep the work queue coarse (one atomic per block, not per
// point) while staying small enough that the last block never leaves a
// worker idle for long.
const queryBlock = 256

// BuildExact builds the exact kNN graph by blocked brute force: each
// worker claims a block of query points and scans the whole dataset,
// keeping the k best per query in a bounded heap with an early-exit
// distance kernel thresholded at the current worst. O(n²d) worst case —
// this is the baseline the approximate builder is benchmarked against,
// and the only exact option once d is high enough that tree pruning
// stops working (see the kd-tree high-dimension tests).
//
// Every query's list depends only on the dataset, so the result is
// byte-identical for every worker count. workers <= 0 uses GOMAXPROCS.
func BuildExact(ds *geom.Dataset, k, workers int) (*Graph, error) {
	if err := validateBuild(ds, k); err != nil {
		return nil, err
	}
	n := ds.Len()
	g := &Graph{K: k, Idx: make([]int32, n*k), Dist: make([]float64, n*k)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+queryBlock-1)/queryBlock {
		workers = (n + queryBlock - 1) / queryBlock
	}

	var wg sync.WaitGroup
	blocks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := heapList{idx: make([]int32, k), d2: make([]float64, k)}
			for lo := range blocks {
				hi := lo + queryBlock
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					exactQuery(ds, int32(i), &h)
					h.extract(g.Idx[i*k:(i+1)*k], g.Dist[i*k:(i+1)*k])
				}
			}
		}()
	}
	for lo := 0; lo < n; lo += queryBlock {
		blocks <- lo
	}
	close(blocks)
	wg.Wait()
	return g, nil
}

// exactQuery fills h with query point q's k nearest neighbours.
func exactQuery(ds *geom.Dataset, q int32, h *heapList) {
	k := len(h.idx)
	qc := ds.At(q)
	n := int32(ds.Len())
	// Seed the heap with the first k non-self points at full distance.
	filled := 0
	var j int32
	for ; filled < k; j++ {
		if j == q {
			continue
		}
		h.idx[filled] = j
		h.d2[filled] = geom.SqDistD(qc, ds.At(j))
		filled++
	}
	h.heapify()
	// Scan the rest four rows at a time through the fused early-exit
	// kernel: a candidate whose partial sum already clears the heap's
	// worst at the start of its group (plus an ulp margin for checkpoint
	// rounding) is dropped mid-scan; a completed scan returns the
	// canonical SqDistD value bit-identically, so the stored distance is
	// the one any other code path would compute. push re-tests against
	// the current worst, so the list equals a one-row-at-a-time scan
	// (DESIGN §16).
	var rows [4][]float64
	var ids [4]int32
	var d2 [4]float64
	var ok [4]bool
	for j < n {
		m := 0
		for ; m < 4 && j < n; j++ {
			if j != q {
				ids[m], rows[m] = j, ds.At(j)
				m++
			}
		}
		limit := h.d2[0] * (1 + distFilterMargin)
		geom.SqDistsFiltered(qc, rows[:m], limit, d2[:m], ok[:m])
		for r := 0; r < m; r++ {
			if ok[r] {
				h.push(ids[r], d2[r])
			}
		}
	}
}

// distFilterMargin inflates early-exit filter thresholds so that
// checkpoint rounding (relative error O(d·ulp), under 1e-13 at d=128)
// can never reject a candidate whose canonical SqDistD value would be
// accepted.
const distFilterMargin = 1e-9
