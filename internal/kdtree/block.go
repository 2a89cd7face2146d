package kdtree

// BlockSize is the most queries one RadiusBlock call answers. Smaller
// blocks repeat the descent more often; larger ones widen the block box
// until every query scans leaves it cannot reach. On the c100k mixture
// (d=10, one worker, five runs each) pdsdbscan took a median 0.56 s
// with blocks of 32 or 16, 0.57 s with 8 and 0.60 s with 64.
const BlockSize = 32

// Block is RadiusBlock's caller-owned state: the last call's results
// and the buffers every call reuses, so a warmed Block makes a call
// allocate nothing. The zero value is ready to use. A Block serves one
// goroutine at a time.
type Block struct {
	nbrs []int32
	ends [BlockSize]int
	// cands lists, in leaf order, the leaves the descent left for every
	// query to scan.
	cands  []int32
	lo, hi []float64 // the block's bounding box
	qs     query
}

// Neighbors returns the k-th query's neighbours from the last
// RadiusBlock call, in ascending position of Tree.Order(). The slice
// aliases the Block and is overwritten by the next call.
func (b *Block) Neighbors(k int) []int32 {
	lo := 0
	if k > 0 {
		lo = b.ends[k-1]
	}
	return b.nbrs[lo:b.ends[k]:b.ends[k]]
}

// RadiusBlock answers an eps query around every point of pts — at most
// BlockSize indices into the tree's own dataset — with one descent for
// the whole block, and leaves each query's neighbours in
// b.Neighbors(k). Each neighbour set equals Radius(ds.At(pts[k]), eps)'s;
// the order is the block's leaf order (ascending Tree.Order() position)
// rather than Radius's near-child-first order.
//
// Any points are answered exactly, but the entry pays off for points
// that lie close together: one contiguous run of Tree.Order(), or a
// filtered subset of one. The descent prunes each node by the distance
// between its box and the block's bounding box, against eps² plus the
// certainty band (epsBand with the block's largest coordinate, or
// exactBand on the float64 path). Every query then scans each remaining
// candidate leaf through scanLeaf with no per-query leaf box test: on
// c100k a leaf-order pass in blocks computes 27% more distances than
// one Radius per point, with 94% fewer node visits, and takes ~40% less
// time.
//
// Callers: pdsdbscan (Run's passes and Census, over the whole leaf
// order) and core's exact-pair executors, which answer a range
// partition (a run of a leaf-ordered tree's order) or a cell's home
// points (its tree's order, filtered) in blocks before expanding.
// Per-query descents stay where a block would not pay: the paper's
// SeedSingle pair on input-index ranges and serve assignments (MinKey)
// query scattered points, whose bounding box spans the domain and
// prunes nothing, and a capped query (RadiusLimit) stops at its cap.
//
// stats may be nil; when non-nil it receives the block's work, with the
// shared descent's node visits counted once.
func (t *Tree) RadiusBlock(pts []int32, eps float64, b *Block, stats *SearchStats) {
	if len(pts) > BlockSize {
		panic("kdtree: RadiusBlock given more than BlockSize points")
	}
	b.nbrs = b.nbrs[:0]
	if len(pts) == 0 {
		return
	}
	dim := t.ds.Dim
	b.lo = append(b.lo[:0], t.ds.At(pts[0])...)
	b.hi = append(b.hi[:0], b.lo...)
	for _, p := range pts[1:] {
		for j, v := range t.ds.At(p) {
			// The builtins propagate a NaN coordinate into the box,
			// which then prunes nothing.
			b.lo[j] = min(b.lo[j], v)
			b.hi[j] = max(b.hi[j], v)
		}
	}
	narrow := t.narrow(dim)
	eps2 := eps * eps
	qs := &b.qs
	qs.setRadius(eps2, t.band(narrow, dim, eps2, max(absMax(b.lo), absMax(b.hi))))
	var local SearchStats
	b.cands = t.blockDescend(b.lo, b.hi, qs.sHi, b.cands[:0], &local)
	for k, p := range pts {
		qs.setPoint(t.ds.At(p), narrow)
		for _, ni := range b.cands {
			b.nbrs, _ = t.scanLeaf(ni, qs, -1, b.nbrs, &local)
		}
		b.ends[k] = len(b.nbrs)
	}
	local.Reported = int64(len(b.nbrs))
	if stats != nil {
		stats.Add(local)
	}
}

// blockDescend walks the tree once for the block box [lo, hi] and
// appends to cands, in leaf order, every leaf some query may reach.
func (t *Tree) blockDescend(lo, hi []float64, sHi float64, cands []int32, stats *SearchStats) []int32 {
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		stats.NodesVisited++
		if t.boxMisses(ni, lo, hi, sHi) {
			continue
		}
		nd := &t.nodes[ni]
		if nd.splitDim < 0 {
			cands = append(cands, ni)
			continue
		}
		// Left pops first, so leaves come out in Tree.Order() position.
		stack[sp], stack[sp+1] = nd.right, nd.left
		sp += 2
	}
	return cands
}
