package knng

import (
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/par"
)

// Exact-scan tiling. A worker claims queryBlock query points at a time
// from par.For's cursor (one atomic per block, not per point, while the
// last block never leaves a worker idle for long); the package's other
// parallel passes claim points in blocks of the same length. Within a
// block, each group of querySubBlock queries sweeps the dataset in
// rowTile-row tiles: at d=128 a tile is 512 KB, so it stays in L2 while
// every query of the group scans it, and the dataset streams from
// memory once per group instead of once per query.
const (
	queryBlock    = 256
	querySubBlock = 32
	rowTile       = 512
)

// BuildExact builds the exact kNN graph by blocked brute force: each
// worker claims a block of query points and sweeps the dataset tile by
// tile, keeping the k best per query in a bounded heap with an
// early-exit distance kernel thresholded at the current worst. O(n²d)
// worst case — this is the baseline the approximate builder is
// benchmarked against, and the only exact option once d is high enough
// that tree pruning stops working (see the kd-tree high-dimension
// tests).
//
// Every query's list depends only on the dataset, so the result is
// byte-identical for every worker count. workers <= 0 uses GOMAXPROCS.
func BuildExact(ds *geom.Dataset, k, workers int) (*Graph, error) {
	if err := validateBuild(ds, k); err != nil {
		return nil, err
	}
	n := ds.Len()
	g := &Graph{K: k, Idx: make([]int32, n*k), Dist: make([]float64, n*k)}
	workers = min(par.Workers(workers), (n+queryBlock-1)/queryBlock)
	// heaps[w] is worker w's sub-block of query heaps, made on its
	// first block.
	heaps := make([][]heapList, workers)
	par.For(n, queryBlock, workers, func(w, lo, hi int) {
		hs := heaps[w]
		if hs == nil {
			idx := make([]int32, querySubBlock*k)
			d2 := make([]float64, querySubBlock*k)
			hs = make([]heapList, querySubBlock)
			for i := range hs {
				hs[i] = heapList{idx: idx[i*k : (i+1)*k], d2: d2[i*k : (i+1)*k]}
			}
			heaps[w] = hs
		}
		for s := lo; s < hi; s += querySubBlock {
			e := min(s+querySubBlock, hi)
			sweepTiles(ds, int32(s), hs[:e-s])
			for i := s; i < e; i++ {
				hs[i-s].extract(g.Idx[i*k:(i+1)*k], g.Dist[i*k:(i+1)*k])
			}
		}
	})
	return g, nil
}

// sweepTiles fills heaps[i] with query point q0+i's k nearest
// neighbours. Tiles run in ascending row order and each query keeps its
// heap and its seeding count from one tile to the next, so every query
// still sees the rows in ascending order.
func sweepTiles(ds *geom.Dataset, q0 int32, heaps []heapList) {
	var filled [querySubBlock]int
	n := int32(ds.Len())
	for lo := int32(0); lo < n; lo += rowTile {
		hi := min(lo+rowTile, n)
		for i := range heaps {
			filled[i] = scanRows(ds, q0+int32(i), &heaps[i], filled[i], lo, hi)
		}
	}
}

// scanRows offers rows [lo, hi) to query point q's list and returns the
// updated seeding count. The first k non-self rows of the dataset seed
// the list at full distance; the heap is ordered once the k-th arrives.
// The rest run four at a time through the fused early-exit kernel: a
// candidate whose partial sum already clears the heap's worst at the
// start of its group (plus an ulp margin for checkpoint rounding) is
// dropped mid-scan; a completed scan returns the canonical SqDistD
// value bit-identically, so the stored distance is the one any other
// code path would compute. push re-tests against the current worst, so
// the list equals a one-row-at-a-time scan whatever the group and tile
// boundaries (DESIGN §16).
func scanRows(ds *geom.Dataset, q int32, h *heapList, filled int, lo, hi int32) int {
	k := len(h.idx)
	qc := ds.At(q)
	j := lo
	for ; filled < k && j < hi; j++ {
		if j == q {
			continue
		}
		h.idx[filled] = j
		h.d2[filled] = geom.SqDistD(qc, ds.At(j))
		if filled++; filled == k {
			h.heapify()
		}
	}
	var rows [4][]float64
	var ids [4]int32
	var d2 [4]float64
	var ok [4]bool
	for j < hi {
		m := 0
		for ; m < 4 && j < hi; j++ {
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
	return filled
}

// distFilterMargin inflates early-exit filter thresholds so that
// checkpoint rounding (relative error O(d·ulp), under 1e-13 at d=128)
// can never reject a candidate whose canonical SqDistD value would be
// accepted.
const distFilterMargin = 1e-9
