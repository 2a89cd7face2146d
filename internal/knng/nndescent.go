package knng

import (
	"slices"
	"sync/atomic"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/par"
	"sparkdbscan/internal/rng"
)

// ApproxOptions tunes BuildNNDescent. The zero value picks defaults.
type ApproxOptions struct {
	// Seed drives every sampling decision (initial lists, reverse
	// sampling offsets). Two builds with the same seed and dataset are
	// byte-identical, at any worker count.
	Seed uint64
	// Workers parallelizes the per-point improvement step; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Iters caps the number of improvement rounds (default 12; the
	// Delta test usually stops earlier).
	Iters int
	// Sample caps how many entries each forward and reverse list
	// contributes to a round's candidate pool and two-hop expansion
	// (Dong et al.'s sample rate rho, as a count: Sample ~ rho*k).
	// Default max(4, k/2). Lower trades recall for speed; the join
	// cost is roughly quadratic in it.
	Sample int
	// Delta stops iterating once fewer than Delta*n lists changed in a
	// round (default 0.001).
	Delta float64
}

func (o ApproxOptions) withDefaults(k int) ApproxOptions {
	o.Workers = par.Workers(o.Workers)
	if o.Iters <= 0 {
		o.Iters = 12
	}
	if o.Sample <= 0 {
		o.Sample = k / 2
		if o.Sample < 4 {
			o.Sample = 4
		}
	}
	if o.Delta <= 0 {
		o.Delta = 0.001
	}
	return o
}

// revEntry is one reverse edge j→t recorded at t, carrying the "new"
// flag of the forward entry it mirrors.
type revEntry struct {
	j     int32
	fresh bool
}

// BuildNNDescent builds an approximate kNN graph by neighbour
// propagation (NN-descent, Dong et al., WWW'11): start from seeded
// random lists, then repeatedly offer every point the neighbours of its
// neighbours (forward and reverse), keeping the k best. Distances are
// always computed exactly, so the graph can miss true neighbours but
// never misstates a distance.
//
// Unlike the classic formulation — whose cross-updates make the result
// depend on thread interleaving — each round here computes point i's
// new list as a pure function of the previous round's graph (a
// synchronous "Jacobi" sweep): candidates are gathered through i's
// 2-hop neighbourhood, admitted only when one of the two hops was
// inserted in the previous round (the incremental new-edge join that
// gives NN-descent its speed), deduplicated, and merged under the same
// (distance, index) order the exact builder uses. Rounds end when fewer
// than Delta*n lists changed. The result is therefore byte-identical
// per (dataset, k, Seed, Iters, Sample, Delta) at any worker count.
func BuildNNDescent(ds *geom.Dataset, k int, opt ApproxOptions) (*Graph, error) {
	if err := validateBuild(ds, k); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(k)
	n := ds.Len()
	d := newDescent(ds, k, opt)
	stop := int(opt.Delta * float64(n))
	for round := 0; round < opt.Iters; round++ {
		d.prepare(round)
		changed := d.sweep(round, d.graphOrder())
		d.advance()
		if changed <= stop {
			break
		}
	}

	// Finalize: sort each list ascending and take square roots.
	g := &Graph{K: k, Idx: make([]int32, n*k), Dist: make([]float64, n*k)}
	par.For(n, queryBlock, opt.Workers, func(_, lo, hi int) {
		h := heapList{}
		for i := lo; i < hi; i++ {
			h.idx = d.idx[i*k : (i+1)*k]
			h.d2 = d.d2[i*k : (i+1)*k]
			h.heapify()
			h.extract(g.Idx[i*k:(i+1)*k], g.Dist[i*k:(i+1)*k])
		}
	})
	return g, nil
}

// descent is one BuildNNDescent run: the current and next graphs and
// the read-only tables each round derives from the current one.
type descent struct {
	ds  *geom.Dataset
	k   int
	opt ApproxOptions

	// Current graph, heap-ordered per point, squared distances. fresh
	// marks entries inserted in the latest round.
	idx   []int32
	d2    []float64
	fresh []bool
	// The next round's graph, which sweep writes.
	nextIdx   []int32
	nextD2    []float64
	nextFresh []bool

	// revs[revStart[t]:revStart[t+1]] is t's list in the current
	// graph's reverse adjacency. hops[hopStart[p]:hopStart[p+1]] holds
	// p's sampled forward slice (saltFwdHop) then its sampled reverse
	// slice (saltRevHop): what a two-hop expansion through pool member p
	// reads, at most 2*Sample entries.
	revStart []int32
	revs     []revEntry
	hopStart []int32
	hops     []revEntry

	order  []int32 // graphOrder's walk, reused across rounds
	queued []bool
	// workers[w] is par.For worker w's sweep scratch, made on its first
	// block and kept across rounds, so it keeps its n-sized visited
	// array and carries its epoch on.
	workers []*descentWorker
}

func newDescent(ds *geom.Dataset, k int, opt ApproxOptions) *descent {
	n := ds.Len()
	d := &descent{
		ds: ds, k: k, opt: opt,
		idx: make([]int32, n*k), d2: make([]float64, n*k), fresh: make([]bool, n*k),
		nextIdx: make([]int32, n*k), nextD2: make([]float64, n*k), nextFresh: make([]bool, n*k),
		revStart: make([]int32, n+1),
		revs:     make([]revEntry, n*k),
		hopStart: make([]int32, n+1),
		order:    make([]int32, 0, n),
		queued:   make([]bool, n),
	}
	initRandomLists(ds, k, opt.Seed, opt.Workers, d.idx, d.d2, d.fresh)
	return d
}

// rev returns t's list in the current graph's reverse adjacency.
func (d *descent) rev(t int32) []revEntry {
	return d.revs[d.revStart[t]:d.revStart[t+1]]
}

// prepare rebuilds the round's read-only tables from the current graph:
// the reverse adjacency, then the hop table.
func (d *descent) prepare(round int) {
	n, k, sample, seed := d.ds.Len(), d.k, d.opt.Sample, d.opt.Seed
	// Count each list's length into revStart[t+1] and sum them, then
	// fill with revStart[t] as t's cursor, scanning points in ascending
	// order so each list is deterministically ordered (the stride walks
	// then cap it). The fill leaves revStart[t] at t's end, so shifting
	// it up one slot restores the starts.
	clear(d.revStart)
	for _, t := range d.idx {
		d.revStart[t+1]++
	}
	for t := 0; t < n; t++ {
		d.revStart[t+1] += d.revStart[t]
	}
	for i := 0; i < n; i++ {
		for s := i * k; s < (i+1)*k; s++ {
			t := d.idx[s]
			d.revs[d.revStart[t]] = revEntry{j: int32(i), fresh: d.fresh[s]}
			d.revStart[t]++
		}
	}
	copy(d.revStart[1:], d.revStart[:n])
	d.revStart[0] = 0

	// Sizes first, so each point's slice has a fixed place, then the
	// entries, filled in parallel.
	for p := 0; p < n; p++ {
		off, stride := strideWalk(k, sample, seed, round, int32(p), saltFwdHop)
		m := walkLen(k, off, stride)
		rv := d.rev(int32(p))
		off, stride = strideWalk(len(rv), sample, seed, round, int32(p), saltRevHop)
		m += walkLen(len(rv), off, stride)
		d.hopStart[p+1] = d.hopStart[p] + int32(m)
	}
	d.hops = slices.Grow(d.hops[:0], int(d.hopStart[n]))[:d.hopStart[n]]
	par.For(n, queryBlock, d.opt.Workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			c := d.hopStart[p]
			off, stride := strideWalk(k, sample, seed, round, int32(p), saltFwdHop)
			for s := p*k + off; s < (p+1)*k; s += stride {
				d.hops[c] = revEntry{j: d.idx[s], fresh: d.fresh[s]}
				c++
			}
			rv := d.rev(int32(p))
			off, stride = strideWalk(len(rv), sample, seed, round, int32(p), saltRevHop)
			for s := off; s < len(rv); s += stride {
				d.hops[c] = rv[s]
				c++
			}
		}
	})
}

// graphOrder returns a breadth-first walk of the current graph: from
// the lowest point not yet reached, each reached point's list entries
// join the walk in stored order. Graph neighbours share most of their
// candidates, so a sweep in this order finds their rows in cache.
func (d *descent) graphOrder() []int32 {
	k := d.k
	clear(d.queued)
	order := d.order[:0] // also the walk's queue: head chases the tail
	head := 0
	for start := range d.queued {
		if d.queued[start] {
			continue
		}
		d.queued[start] = true
		order = append(order, int32(start))
		for ; head < len(order); head++ {
			i := int(order[head])
			for _, j := range d.idx[i*k : (i+1)*k] {
				if !d.queued[j] {
					d.queued[j] = true
					order = append(order, j)
				}
			}
		}
	}
	d.order = order
	return order
}

// sweep improves every point in the given order (a permutation of the
// point indices), writing the next graph, and returns how many lists
// changed. Workers claim queryBlock-long runs of order. Each list is a
// pure function of the current graph and the round's tables, so neither
// the order nor the split changes the output (DESIGN §16).
func (d *descent) sweep(round int, order []int32) int {
	k := d.k
	var changed atomic.Int64
	workers := min(d.opt.Workers, (len(order)+queryBlock-1)/queryBlock)
	if extra := workers - len(d.workers); extra > 0 {
		d.workers = append(d.workers, make([]*descentWorker, extra)...)
	}
	par.For(len(order), queryBlock, workers, func(wi, lo, hi int) {
		w := d.workers[wi]
		if w == nil {
			w = &descentWorker{
				descent: d,
				visited: make([]int32, d.ds.Len()),
				h:       heapList{idx: make([]int32, d.k), d2: make([]float64, d.k)},
				hFresh:  make([]bool, d.k),
			}
			d.workers[wi] = w
		}
		w.round = round
		local := 0
		for _, i := range order[lo:hi] {
			s := int(i) * k
			if w.improve(i, d.nextIdx[s:s+k], d.nextD2[s:s+k], d.nextFresh[s:s+k]) {
				local++
			}
		}
		changed.Add(int64(local))
	})
	return int(changed.Load())
}

// advance makes the graph sweep wrote the current one.
func (d *descent) advance() {
	d.idx, d.nextIdx = d.nextIdx, d.idx
	d.d2, d.nextD2 = d.nextD2, d.d2
	d.fresh, d.nextFresh = d.nextFresh, d.fresh
}

// initRandomLists fills every point's list with k distinct random
// non-self points, distances computed exactly, heap-ordered, all
// entries fresh. Each point draws from its own rng.Hash64-derived
// stream, so the init is independent of worker scheduling.
func initRandomLists(ds *geom.Dataset, k int, seed uint64, workers int, idx []int32, d2 []float64, fresh []bool) {
	n := ds.Len()
	par.For(n, queryBlock, workers, func(_, lo, hi int) {
		var h heapList
		for i := lo; i < hi; i++ {
			r := rng.New(rng.Hash64(seed^0x6b6e6e67<<24) + rng.Hash64(uint64(i)))
			list := idx[i*k : (i+1)*k]
			dist := d2[i*k : (i+1)*k]
			for m := 0; m < k; {
				c := int32(r.Intn(n))
				if c == int32(i) {
					continue
				}
				dup := false
				for _, prev := range list[:m] {
					if prev == c {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				list[m] = c
				dist[m] = geom.SqDistD(ds.At(int32(i)), ds.At(c))
				m++
			}
			h.idx, h.d2 = list, dist
			h.heapify()
			for m := 0; m < k; m++ {
				fresh[i*k+m] = true
			}
		}
	})
}

// descentWorker holds one worker's scratch state. It lives across
// rounds: visited stamps from earlier rounds are below epoch.
type descentWorker struct {
	*descent
	round int

	visited []int32 // epoch-stamped dedupe
	epoch   int32
	h       heapList
	hFresh  []bool
	pool    []revEntry
	cands   []int32
}

// improve computes point i's next list from the current graph, writing
// into outIdx/outD2/outFresh, and reports whether the list changed.
func (w *descentWorker) improve(i int32, outIdx []int32, outD2 []float64, outFresh []bool) bool {
	k := w.k
	w.epoch++
	ep := w.epoch
	w.visited[i] = ep

	// Start from the current list (already heap-ordered). A surviving
	// entry keeps its fresh flag until the pool walk below actually
	// samples it (Dong et al.'s rule: "new" is cleared on use, not on
	// age) — with sampled joins an edge's turn may come a round or two
	// after its insertion, and dropping the flag early would silently
	// discard its join opportunity.
	off, stride := strideWalk(k, w.opt.Sample, w.opt.Seed, w.round, i, saltFwdPool)
	copy(w.h.idx, w.idx[int(i)*k:(int(i)+1)*k])
	copy(w.h.d2, w.d2[int(i)*k:(int(i)+1)*k])
	for m := range w.hFresh {
		sampled := m >= off && (m-off)%stride == 0
		w.hFresh[m] = w.fresh[int(i)*k+m] && !sampled
	}
	for _, c := range w.h.idx {
		w.visited[c] = ep
	}

	// Pool: a sampled slice of i's forward list plus a sampled slice of
	// its reverse one (Dong et al.'s rho-sampling on both sides), each
	// entry tagged with the freshness of the edge that put it there.
	w.pool = w.pool[:0]
	for s := int(i)*k + off; s < (int(i)+1)*k; s += stride {
		w.pool = append(w.pool, revEntry{j: w.idx[s], fresh: w.fresh[s]})
	}
	fwdLen := len(w.pool)
	rv := w.rev(i)
	off, stride = strideWalk(len(rv), w.opt.Sample, w.opt.Seed, w.round, i, saltRevPool)
	for s := off; s < len(rv); s += stride {
		w.pool = append(w.pool, rv[s])
	}

	// Candidates, deduplicated in first-seen order: the reverse pool
	// members themselves (forward ones are already in the list), then
	// the two-hop candidates — each pool member's own sampled forward
	// and reverse slices, its hop-table entry — admitted only through a
	// fresh hop. Which
	// points qualify depends on the previous round's graph alone, never
	// on the heap, so gathering them first leaves the order unchanged.
	w.cands = w.cands[:0]
	for _, p := range w.pool[fwdLen:] {
		w.gather(p.j)
	}
	for _, p := range w.pool {
		for _, h := range w.hops[w.hopStart[p.j]:w.hopStart[p.j+1]] {
			if p.fresh || h.fresh {
				w.gather(h.j)
			}
		}
	}
	changed := w.offerCands(w.ds.At(i))

	copy(outIdx, w.h.idx)
	copy(outD2, w.h.d2)
	copy(outFresh, w.hFresh)
	return changed
}

// gather appends c to the round's candidates unless this point already
// saw it.
func (w *descentWorker) gather(c int32) {
	if w.visited[c] != w.epoch {
		w.visited[c] = w.epoch
		w.cands = append(w.cands, c)
	}
}

// offerCands computes the exact distance to every candidate, four at a
// time through geom.SqDistsFiltered with the early-exit limit taken from
// the heap's worst before each group, and pushes in candidate order.
// It reports whether the list changed. The result equals offering each
// candidate alone under its own limit (DESIGN §16): a group's limit is
// never tighter, a completed distance is canonical SqDistD bit for bit,
// and the push test below reads the current worst.
func (w *descentWorker) offerCands(qc []float64) bool {
	changed := false
	var rows [4][]float64
	var d2 [4]float64
	var ok [4]bool
	for lo := 0; lo < len(w.cands); lo += 4 {
		group := w.cands[lo:min(lo+4, len(w.cands))]
		for r, c := range group {
			rows[r] = w.ds.At(c)
		}
		m := len(group)
		limit := w.h.d2[0] * (1 + distFilterMargin)
		geom.SqDistsFiltered(qc, rows[:m], limit, d2[:m], ok[:m])
		for r, c := range group {
			if !ok[r] || d2[r] > w.h.d2[0] || (d2[r] == w.h.d2[0] && c >= w.h.idx[0]) {
				continue
			}
			w.pushFresh(c, d2[r])
			changed = true
		}
	}
	return changed
}

// pushFresh is heapList.push plus the parallel fresh-flag array.
func (w *descentWorker) pushFresh(c int32, d2 float64) {
	w.h.idx[0], w.h.d2[0], w.hFresh[0] = c, d2, true
	// siftDown with the flag riding along.
	h := &w.h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.idx) && h.worse(l, m) {
			m = l
		}
		if r < len(h.idx) && h.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		w.hFresh[i], w.hFresh[m] = w.hFresh[m], w.hFresh[i]
		i = m
	}
}

// Salts keep the four stride walks of a round decorrelated: the same
// point's forward list is sampled at a different offset as pool source
// versus two-hop expansion, and so on.
const (
	saltFwdPool = 0x9e3779b97f4a7c15
	saltRevPool = 0xbf58476d1ce4e5b9
	saltFwdHop  = 0x94d049bb133111eb
	saltRevHop  = 0xd6e8feb86659fd93
)

// strideWalk picks a deterministic <= sample-element slice of a
// length-element list: visit indices off, off+stride, ... A pure
// function of (seed, round, t, salt), so every worker sees the same
// slice, and the offset rotates with the round so repeated rounds
// cover different elements. length <= sample walks everything.
func strideWalk(length, sample int, seed uint64, round int, t int32, salt uint64) (off, stride int) {
	if length <= sample {
		return 0, 1
	}
	stride = (length + sample - 1) / sample
	off = int(rng.Hash64(seed^salt^(uint64(round)<<40)^uint64(uint32(t))) % uint64(stride))
	return off, stride
}

// walkLen is how many indices the walk (off, stride) visits in a
// length-element list.
func walkLen(length, off, stride int) int {
	if off >= length {
		return 0
	}
	return (length - off + stride - 1) / stride
}
