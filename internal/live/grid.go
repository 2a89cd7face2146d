package live

import (
	"slices"
	"sync/atomic"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
)

const (
	gridBits    = 12
	gridBuckets = 1 << gridBits // hash-table size
	gridSegLen  = 16            // slot ids per bucket segment
	gridMaxAxes = 3             // split axes
	// gridInflate widens a query's cell box by this relative margin
	// (core's cell halo uses the same one). The distance test accepts p
	// only if SqDistD(q, p) <= eps*eps, and every partial sum of
	// non-negative squares rounds monotonically, so an accepted p lies
	// within eps·(1+2⁻⁵⁰) of q on every axis — inside the inflated box.
	gridInflate = 1e-12
)

// allBuckets lists every bucket id: the visit set of a query whose
// cell box covers more cells than the table has buckets.
var allBuckets = func() []int32 {
	ids := make([]int32, gridBuckets)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}()

// overlayGrid is the spatial index over one base's overlay slots,
// shared by the writer and every reader of that base. It splits the
// widest axes of the base's bounds (at most gridMaxAxes) into cells of
// side eps and hashes each cell to one of gridBuckets buckets.
//
// A bucket is an append-only list of fixed-size segments of slot ids.
// Only the writer appends, in slot order, and it appends a slot before
// the publish that exposes it; entries and links are stored and loaded
// atomically. A reader whose view covers slots [0, n) walks a bucket
// until the first entry >= n (or an unwritten one), so it sees exactly
// its epoch's slots however far the writer has appended since: the
// grid needs no copy-on-write. A reconcile starts a fresh grid with its
// fresh base; pinned readers of the old base keep the old one.
type overlayGrid struct {
	first   int32     // global index of overlay slot 0 (the base size)
	axes    []int     // split axes, widest first
	origin  []float64 // the base's lower bound on each split axis
	side    float64   // cell edge on every split axis
	buckets []gridBucket
}

type gridBucket struct {
	head atomic.Pointer[gridSegment]
	tail *gridSegment // writer only
	fill int          // writer only: entries used in tail
}

type gridSegment struct {
	slot [gridSegLen]atomic.Int32 // overlay slot + 1; 0 is unwritten
	next atomic.Pointer[gridSegment]
}

// newOverlayGrid plans the grid for overlay points added on top of
// base dataset ds, with cells of side eps.
func newOverlayGrid(ds *geom.Dataset, eps float64) *overlayGrid {
	k := min(ds.Dim, gridMaxAxes)
	gr := &overlayGrid{
		first:   int32(ds.Len()),
		axes:    make([]int, k),
		origin:  make([]float64, k),
		side:    eps,
		buckets: make([]gridBucket, gridBuckets),
	}
	if ds.Len() == 0 {
		for a := range gr.axes {
			gr.axes[a] = a
		}
		return gr
	}
	b := ds.Bounds()
	copy(gr.axes, b.WidestAxes())
	for a, ax := range gr.axes {
		gr.origin[a] = b.Min[ax]
	}
	return gr
}

// bucketOf hashes a cell's coordinates on the split axes to a bucket.
func bucketOf(cell []int64) int32 {
	h := uint64(0)
	for _, c := range cell {
		h = (h ^ uint64(c)) * 0x9e3779b97f4a7c15
	}
	return int32(h >> (64 - gridBits))
}

// add appends overlay slot j, holding point p, to its cell's bucket.
// Writer only.
func (gr *overlayGrid) add(j int32, p []float64) {
	var cell [gridMaxAxes]int64
	for a, ax := range gr.axes {
		cell[a] = geom.CellCoord(p[ax], gr.origin[a], gr.side)
	}
	b := &gr.buckets[bucketOf(cell[:len(gr.axes)])]
	if b.tail != nil && b.fill < gridSegLen {
		b.tail.slot[b.fill].Store(j + 1)
		b.fill++
		return
	}
	s := &gridSegment{}
	s.slot[0].Store(j + 1)
	if b.tail == nil {
		b.head.Store(s)
	} else {
		b.tail.next.Store(s)
	}
	b.tail, b.fill = s, 1
}

// near appends to ids, sorted and without duplicates, the buckets of
// every cell the box [q-r, q+r] touches on the split axes, r being eps
// inflated by gridInflate. CellCoord is monotone, so a point inside
// the box has its cell inside the box's cell range. A box of more
// cells than there are buckets visits every bucket.
func (gr *overlayGrid) near(q []float64, eps float64, ids []int32) []int32 {
	r := eps * (1 + gridInflate)
	k := len(gr.axes)
	var lo, hi [gridMaxAxes]int64
	cells := int64(1)
	for a, ax := range gr.axes {
		lo[a] = geom.CellCoord(q[ax]-r, gr.origin[a], gr.side)
		hi[a] = geom.CellCoord(q[ax]+r, gr.origin[a], gr.side)
		if hi[a] < lo[a] {
			return ids
		}
		if span := hi[a] - lo[a] + 1; span > gridBuckets {
			return allBuckets
		} else if cells *= span; cells > gridBuckets {
			return allBuckets
		}
	}
	cell := lo
	for {
		ids = append(ids, bucketOf(cell[:k]))
		a := 0
		for ; a < k && cell[a] == hi[a]; a++ {
			cell[a] = lo[a]
		}
		if a == k {
			break
		}
		cell[a]++
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// search is the overlay's one neighbourhood query, behind both the
// writer's queryLive and the readers' DeltaIndex. It appends to out,
// in ascending order, the global index of every overlay slot j < n
// that dead does not reject and whose point (in arena extra) lies
// within eps of q. With max > 0 it stops after max hits.
func (gr *overlayGrid) search(q []float64, eps float64, max int, extra []*coordChunk, n int, dead func(g int32) bool, out []int32, stats *kdtree.SearchStats) []int32 {
	if max == 0 || n == 0 {
		return out
	}
	var idBuf [32]int32
	dim := len(q)
	eps2 := eps * eps
	before := len(out)
	var local kdtree.SearchStats
buckets:
	for _, bi := range gr.near(q, eps, idBuf[:0]) {
		for s := gr.buckets[bi].head.Load(); s != nil; s = s.next.Load() {
			for i := range s.slot {
				j := int(s.slot[i].Load()) - 1
				if j < 0 || j >= n {
					continue buckets
				}
				g := gr.first + int32(j)
				if dead(g) {
					continue
				}
				local.DistComps++
				off := (j % chunkPts) * dim
				d2, ok := geom.SqDistDFiltered(q, extra[j/chunkPts].pts[off:off+dim], eps2)
				if ok && d2 <= eps2 {
					out = append(out, g)
					if max > 0 && len(out)-before >= max {
						break buckets
					}
				}
			}
		}
	}
	slices.Sort(out[before:])
	local.Reported = int64(len(out) - before)
	if stats != nil {
		stats.Add(local)
	}
	return out
}
