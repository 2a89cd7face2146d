package kdtree

// RadiusBatch answers one eps-radius query per point of qs — nq =
// len(qs)/dim points, flat row-major, dim must match the indexed
// dataset's dimensionality — and calls visit(qi, nbrs) once per query,
// in query order. nbrs is reused between calls: the callback must copy
// anything it wants to keep.
//
// The point of the batch entry is amortization, which is what the
// online serving layer's micro-batching buys its throughput with:
//
//   - the float32 certainty band (see epsBand) is derived once from the
//     batch-wide coordinate magnitude instead of once per query. A
//     band wider than one query needs is sound — it only routes more
//     borderline candidates to the exact float64 re-check;
//   - the narrowed-query buffer and the neighbour buffer are reused
//     across the batch, so a batch of any size performs at most one
//     neighbour-slice growth sequence instead of per-call setup;
//   - consecutive queries walk a tree whose upper nodes and leaf blocks
//     are still cache-resident from the previous traversal.
//
// Results are identical to calling Radius once per query. stats may be
// nil; when non-nil it receives the batch's aggregate work.
func (t *Tree) RadiusBatch(qs []float64, dim int, eps float64, stats *SearchStats, visit func(qi int, nbrs []int32)) {
	if dim <= 0 {
		return
	}
	nq := len(qs) / dim
	if nq == 0 {
		return
	}
	eps2 := eps * eps
	narrow := t.narrow(dim)
	var st query
	st.setRadius(eps2, t.band(narrow, dim, eps2, absMax(qs[:nq*dim])))
	var nbrs []int32
	var local SearchStats
	for qi := 0; qi < nq; qi++ {
		st.setPoint(qs[qi*dim:(qi+1)*dim:(qi+1)*dim], narrow)
		nbrs = t.radiusScan(&st, -1, nbrs[:0], &local)
		local.Reported += int64(len(nbrs))
		visit(qi, nbrs)
	}
	if stats != nil {
		stats.Add(local)
	}
}
