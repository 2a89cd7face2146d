// Package kdtree implements the spatial index the paper uses to bring
// DBSCAN's neighbourhood queries from O(n²) to ~O(n log n): a bucketed
// kd-tree (Bentley 1975) with eps-radius range search, an optional
// "pruned branches" search that caps the number of reported neighbours
// (the paper enables this for the 1-million-point runs, §V-E), and a
// brute-force index used as the correctness and ablation baseline.
//
// The Tree uses a cache-friendly packed layout: each leaf's coordinates
// are copied at build time into a contiguous dimension-major float32
// block feeding a vectorized distance kernel (AVX2/FMA on amd64, with a
// portable fallback), so range scans stream sequential memory instead
// of chasing the order permutation into the full dataset; every node
// carries its bounding box, letting searches skip subtrees whose box
// misses the query ball; and traversals are iterative over an explicit
// stack. Narrowed float32 classifications stay exact through an
// interval band around eps² (see epsBand).
//
// Every search can meter its work into a SearchStats so the virtual
// cluster can charge simulated time proportional to the real number of
// nodes visited and distances computed.
package kdtree

import (
	"math"
	"unsafe"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/par"
)

// SearchStats accumulates the work performed by one or more queries.
// The cost model converts these counts into simulated time.
type SearchStats struct {
	NodesVisited int64 // tree nodes touched (internal + leaf)
	DistComps    int64 // full d-dimensional distance computations
	Reported     int64 // neighbours returned
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.NodesVisited += other.NodesVisited
	s.DistComps += other.DistComps
	s.Reported += other.Reported
}

// Index is the neighbourhood-query contract every eps-range structure
// in this repository answers DBSCAN through. Three implementations
// share it and must not drift (contract_test.go pins all three at
// compile time, and the property tests pin Tree against BruteForce
// behaviourally):
//
//   - *Tree: the packed bucketed kd-tree, immutable after Build.
//   - *BruteForce: the O(n)-per-query linear scan reference.
//   - live.DeltaIndex: the append-only overlay of a mutable live
//     model — the delta points inserted since the last reconcile,
//     searched through an eps-side cell grid and queried alongside
//     the frozen Tree.
//
// Contract details shared by all implementations: neighbourhoods are
// closed balls (distance <= eps), a dataset point within eps of q is
// reported even if it coincides with q, returned indices identify
// points in the implementation's own index space, order is
// unspecified, and stats may be nil.
type Index interface {
	// Radius appends to out the indices of all points within eps
	// (Euclidean) of q, in unspecified order, and returns the extended
	// slice. stats may be nil.
	Radius(q []float64, eps float64, out []int32, stats *SearchStats) []int32
	// RadiusLimit is Radius but stops after max neighbours have been
	// found ("pruning branches"). The result is a subset of the true
	// neighbourhood; which subset depends on tree layout. max counts
	// the neighbours appended, not len(out). A negative max means
	// uncapped (Radius is RadiusLimit with max -1), and max 0 returns
	// out unchanged.
	RadiusLimit(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32
}

// defaultLeafSize favours wide leaves: the vector leaf kernel absorbs
// extra candidates far more cheaply than the traversal absorbs extra
// nodes, and its midpoint early-exit stops paying for candidates that
// half the dimensions already rule out.
const defaultLeafSize = 128

// maxDepth bounds the traversal stacks. Median splits halve every
// subrange, so the depth of a tree over n ≤ 2³¹ points is at most
// ~log₂(n)+2 ≤ 34; 64 leaves ample slack.
const maxDepth = 64

type node struct {
	// splitDim is -1 for leaves. For internal nodes, points with
	// coord[splitDim] <= splitVal are in the left subtree.
	splitDim int32
	left     int32 // node index; leaf: unused
	right    int32
	// start, end delimit a leaf's range into Tree.order (and its
	// leaf-packed coordinate block); internal nodes leave them zero.
	start, end int32
	splitVal   float64
}

// Tree is a static bucketed kd-tree over a dataset. It is immutable
// after Build and safe for concurrent queries.
type Tree struct {
	ds    *geom.Dataset
	nodes []node
	// order is the permutation of point indices; nodes own sub-ranges.
	// Its capacity runs 7 past its length, so the leaf kernel's 8-lane id
	// loads over the last leaf's pad slots stay inside the allocation.
	order []int32
	// packed holds a float32 copy of each leaf's coordinates in
	// dimension-major (SoA) blocks: leaf points are padded to a multiple
	// of 8 (pad coordinates are +Inf, never reported) and coordinate j
	// of local point i lives at leafOff[node] + j*mPad + i. The layout
	// feeds the vectorized leaf kernel (see simd_amd64.s), which
	// computes 8 candidates per instruction stream; scans stream
	// sequential memory instead of gathering through the permutation.
	//
	// The copy is float32 both to halve scan memory traffic and to
	// double SIMD lane count. Exactness is preserved by interval
	// arithmetic — a candidate whose float32 distance lands within the
	// rounding-error band around eps² is re-checked against the original
	// float64 coordinates (see epsBand); everything else is classified
	// soundly from the narrow copy alone.
	packed []float32
	// leafOff maps a node index to its block offset in packed (leaves
	// only; -1 for internal nodes).
	leafOff []int64
	// maxAbs is the largest absolute coordinate value, fixed at build;
	// it bounds the float32 conversion error of every packed value.
	maxAbs float64
	// bboxMin/bboxMax hold each node's axis-aligned bounding box,
	// dim values per node.
	bboxMin, bboxMax []float64
	// rect32 is the query-path copy of the boxes: per node, dim
	// interleaved (lo, hi) float32 pairs, rounded outward so the box
	// always contains the exact one. Outward rounding keeps exclusion
	// sound (see misses32); interleaving halves the cache lines a box
	// test touches.
	rect32   []float32
	root     int32
	leafSize int
	buildOps int64
}

var _ Index = (*Tree)(nil)

// Build constructs a tree over ds with the default leaf size.
func Build(ds *geom.Dataset) *Tree { return BuildLeafSize(ds, defaultLeafSize) }

// BuildLeafSize constructs a tree whose leaves hold at most leafSize
// points. Splits are made at the median of the widest-spread dimension,
// which keeps the tree balanced (depth O(log n)) even for clustered
// inputs. Large builds are parallelized: once subranges drop below a
// cutoff they become jobs that par.For spreads over GOMAXPROCS
// goroutines, each job building its subtree into private arrays that
// are stitched into the final node table afterwards, in job order. The
// resulting tree is bit-identical regardless of worker count.
func BuildLeafSize(ds *geom.Dataset, leafSize int) *Tree {
	return buildTree(ds, leafSize, 0)
}

// minParallelBuild is the dataset size below which the build stays
// serial: goroutine + stitch overhead beats the win on small inputs.
const minParallelBuild = 4096

// buildJob is a deferred subtree build: organize order[lo:hi) and graft
// the resulting subtree under parent (left or right child).
type buildJob struct {
	lo, hi int32
	parent int32
	isLeft bool
}

// buildTree builds the deferred subtree jobs on par.Workers(workers)
// goroutines.
func buildTree(ds *geom.Dataset, leafSize, workers int) *Tree {
	if leafSize < 1 {
		leafSize = 1
	}
	n := ds.Len()
	t := &Tree{
		ds:       ds,
		order:    make([]int32, n, n+7),
		leafSize: leafSize,
	}
	for i := range t.order {
		t.order[i] = int32(i)
	}
	if n == 0 {
		t.root = -1
		return t
	}
	b := newBuilder(ds, t.order, leafSize)
	b.nodes = make([]node, 0, 2*(n/leafSize+1))

	// The cutoff is a function of n only — not of the worker count —
	// so the node numbering (skeleton first, job subtrees appended in
	// job order) is deterministic across machines and GOMAXPROCS.
	var cutoff int32
	if n >= minParallelBuild {
		cutoff = int32(n / 64)
		if cutoff < 1024 {
			cutoff = 1024
		}
	}
	var jobs []buildJob
	root := b.build(0, int32(n), cutoff, &jobs)
	t.root = root

	subs := make([]*builder, len(jobs))
	par.For(len(jobs), 1, workers, func(_, lo, hi int) {
		for ji := lo; ji < hi; ji++ {
			sb := newBuilder(ds, t.order, leafSize)
			sb.build(jobs[ji].lo, jobs[ji].hi, 0, nil)
			subs[ji] = sb
		}
	})
	for ji := range jobs {
		b.graft(&jobs[ji], subs[ji])
	}
	t.nodes, t.bboxMin, t.bboxMax = b.nodes, b.bboxMin, b.bboxMax
	t.buildOps = b.ops
	t.packLeaves()
	return t
}

// builder accumulates the node table, bounding boxes and metered ops
// for one (sub)tree. The mins/maxs scratch is allocated once per
// builder and reused by every bounds scan, instead of once per node.
type builder struct {
	ds         *geom.Dataset
	order      []int32
	leafSize   int
	nodes      []node
	bboxMin    []float64
	bboxMax    []float64
	mins, maxs []float64
	ops        int64
}

func newBuilder(ds *geom.Dataset, order []int32, leafSize int) *builder {
	return &builder{
		ds:       ds,
		order:    order,
		leafSize: leafSize,
		mins:     make([]float64, ds.Dim),
		maxs:     make([]float64, ds.Dim),
	}
}

// build organizes order[lo:hi) and returns the node index, or, when
// cutoff > 0 and the range is small enough, defers the subtree as a job
// and returns the encoded pending-job id -(jobIdx+1).
func (b *builder) build(lo, hi, cutoff int32, jobs *[]buildJob) int32 {
	if cutoff > 0 && hi-lo <= cutoff {
		*jobs = append(*jobs, buildJob{lo: lo, hi: hi})
		return -int32(len(*jobs))
	}
	b.ops += int64(hi - lo) // bounds scan + partition work at this node
	b.bounds(lo, hi)
	if int(hi-lo) <= b.leafSize {
		return b.emit(node{splitDim: -1, start: lo, end: hi})
	}
	dim, spread := 0, b.maxs[0]-b.mins[0]
	for j := 1; j < b.ds.Dim; j++ {
		if s := b.maxs[j] - b.mins[j]; s > spread {
			dim, spread = j, s
		}
	}
	if spread == 0 {
		// All points in this range are identical; no split can separate
		// them. Store one (possibly oversized) leaf.
		return b.emit(node{splitDim: -1, start: lo, end: hi})
	}
	mid := (lo + hi) / 2
	selectNth(b.ds, b.order, lo, hi, mid, dim)
	splitVal := b.ds.Coords[int(b.order[mid])*b.ds.Dim+dim]
	// Reserve our slot before recursing so children get higher indices.
	self := b.emit(node{splitDim: int32(dim), splitVal: splitVal})
	left := b.build(lo, mid, cutoff, jobs)
	right := b.build(mid, hi, cutoff, jobs)
	if left >= 0 {
		b.nodes[self].left = left
	} else {
		(*jobs)[-left-1].parent, (*jobs)[-left-1].isLeft = self, true
	}
	if right >= 0 {
		b.nodes[self].right = right
	} else {
		(*jobs)[-right-1].parent, (*jobs)[-right-1].isLeft = self, false
	}
	return self
}

// emit appends nd together with the bbox currently held in the
// mins/maxs scratch and returns its index.
func (b *builder) emit(nd node) int32 {
	b.nodes = append(b.nodes, nd)
	b.bboxMin = append(b.bboxMin, b.mins...)
	b.bboxMax = append(b.bboxMax, b.maxs...)
	return int32(len(b.nodes) - 1)
}

// bounds fills the mins/maxs scratch with the bbox of order[lo:hi).
func (b *builder) bounds(lo, hi int32) {
	first := b.ds.At(b.order[lo])
	copy(b.mins, first)
	copy(b.maxs, first)
	for i := lo + 1; i < hi; i++ {
		p := b.ds.At(b.order[i])
		for j, v := range p {
			if v < b.mins[j] {
				b.mins[j] = v
			} else if v > b.maxs[j] {
				b.maxs[j] = v
			}
		}
	}
}

// graft appends sub's node table (whose local root is index 0) to b,
// rebasing child pointers, and hooks it under the job's parent.
func (b *builder) graft(j *buildJob, sub *builder) {
	off := int32(len(b.nodes))
	for _, nd := range sub.nodes {
		if nd.splitDim >= 0 {
			nd.left += off
			nd.right += off
		}
		b.nodes = append(b.nodes, nd)
	}
	b.bboxMin = append(b.bboxMin, sub.bboxMin...)
	b.bboxMax = append(b.bboxMax, sub.bboxMax...)
	b.ops += sub.ops
	if j.isLeft {
		b.nodes[j.parent].left = off
	} else {
		b.nodes[j.parent].right = off
	}
}

// packLeaves copies each leaf's coordinates into its padded
// dimension-major float32 block (see Tree.packed) and records the
// coordinate magnitude bound the error band derives from. Blocks are
// laid out in node-index order, which is deterministic across build
// worker counts.
func (t *Tree) packLeaves() {
	dim := t.ds.Dim
	t.leafOff = make([]int64, len(t.nodes))
	var total int64
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.splitDim >= 0 {
			t.leafOff[ni] = -1
			continue
		}
		t.leafOff[ni] = total
		m := int64(nd.end - nd.start)
		total += ((m + 7) &^ 7) * int64(dim)
	}
	t.packed = make([]float32, total)
	padVal := float32(math.Inf(1))
	coords := t.ds.Coords
	for ni := range t.nodes {
		nd := &t.nodes[ni]
		if nd.splitDim >= 0 {
			continue
		}
		m := int(nd.end - nd.start)
		mPad := (m + 7) &^ 7
		off := t.leafOff[ni]
		for i := 0; i < m; i++ {
			row := coords[int(t.order[int(nd.start)+i])*dim:]
			for j := 0; j < dim; j++ {
				v := row[j]
				t.packed[off+int64(j*mPad+i)] = float32(v)
				if a := math.Abs(v); a > t.maxAbs {
					t.maxAbs = a
				}
			}
		}
		// Pad slots hold +Inf: their kernel distances come out +Inf, which
		// fails every finite threshold (leafHits keeps the kernel to
		// those), or NaN for a query with an infinite or NaN coordinate
		// (see leafHits).
		for i := m; i < mPad; i++ {
			for j := 0; j < dim; j++ {
				t.packed[off+int64(j*mPad+i)] = padVal
			}
		}
	}
	t.rect32 = make([]float32, 2*len(t.bboxMin))
	for i, lo := range t.bboxMin {
		t.rect32[2*i] = roundDown32(lo)
		t.rect32[2*i+1] = roundUp32(t.bboxMax[i])
	}
}

// roundDown32 converts v to the largest float32 not above it.
func roundDown32(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// maxKernelDim bounds the query widths served by the float32 leaf
// kernel (a fixed-size narrowed query). Wider queries — far beyond
// anything the paper runs — scan the exact float64 rows instead.
const maxKernelDim = 32

// leafChunk is the most points one leaf-kernel call scans: one call for
// any normal leaf, chunked for the oversized leaves degenerate
// (all-identical) ranges produce.
const leafChunk = 256

// query is one eps search's classification state: the query point, its
// narrowed copy, the thresholds around eps² and the leaf kernel's
// output. A caller prepares it once per query (RadiusBlock sets the
// thresholds once for many queries) and every leaf scan of that query
// stages its neighbours in st, whose 2 KiB are never zeroed: readers
// see only the entries the current call packed.
type query struct {
	q []float64
	// narrow routes leaves to the float32 kernel over q32buf[:len(q)],
	// the narrowed q; otherwise they take the exact float64 path. (A
	// slice of q32buf kept here would point the struct at itself and
	// move every caller's query to the heap.)
	narrow bool
	// Boxes are excluded above sHi = eps2+band, and narrowed distances
	// are classified against sLo = eps2-band and sHi; sLo32 and sHi32
	// are sLo rounded down and sHi rounded up, the kernel's float32
	// thresholds.
	eps2, sLo, sHi float64
	sLo32, sHi32   float32
	q32buf         [maxKernelDim]float32
	st             stage
}

// setRadius fixes the thresholds for squared radius eps2 and certainty
// band half-width band.
func (s *query) setRadius(eps2, band float64) {
	s.eps2, s.sLo, s.sHi = eps2, eps2-band, eps2+band
	s.sLo32, s.sHi32 = roundDown32(s.sLo), roundUp32(s.sHi)
}

// setPoint loads q, narrowing it for the float32 kernel when narrow is
// set (see Tree.narrow).
func (s *query) setPoint(q []float64, narrow bool) {
	s.q, s.narrow = q, narrow
	if narrow {
		for j, v := range q {
			s.q32buf[j] = float32(v)
		}
	}
}

// q32 returns the narrowed query, or nil on the exact path.
func (s *query) q32() []float32 {
	if !s.narrow {
		return nil
	}
	return s.q32buf[:len(s.q)]
}

// narrow reports whether queries of width dim run on the float32 leaf
// kernel. A mismatched width is a caller error; it is routed to the
// exact path rather than read past the narrowed buffer.
func (t *Tree) narrow(dim int) bool { return dim == t.ds.Dim && dim <= maxKernelDim }

// band returns the certainty band half-width around eps2 for queries
// whose coordinates are at most qMax in magnitude: epsBand on the
// narrow path, exactBand on the exact one.
func (t *Tree) band(narrow bool, dim int, eps2, qMax float64) float64 {
	if narrow {
		return t.epsBand(dim, eps2, qMax)
	}
	return exactBand(dim, eps2)
}

// prepare loads one query into qs with its own band.
func (t *Tree) prepare(qs *query, q []float64, eps2 float64) {
	narrow := t.narrow(len(q))
	qs.setPoint(q, narrow)
	qs.setRadius(eps2, t.band(narrow, len(q), eps2, absMax(q)))
}

// absMax returns the largest |v| over xs (NaNs are ignored).
func absMax(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// epsBand returns the half-width B of the uncertainty band around eps2
// for squared distances computed by the float32 leaf kernel: a
// candidate is accepted outright if s32 <= eps2-B, rejected outright if
// s32 > eps2+B, and resolved against the exact float64 coordinates
// otherwise.
//
// Derivation: narrowing a coordinate loses at most maxAbs·2⁻²⁴ (half a
// ulp at the largest magnitude; same for the query side with qMax, one
// more ulp for the outward-rounded rect bounds misses32 consumes),
// the float32 subtraction rounds once more, and subnormal narrowing
// adds an absolute floor — e below bounds the per-dimension delta error
// with slack to spare. The squared distance s over d dimensions carries
// an error of at most δ(s) ≤ a·√s + r·s + c with a = 2e·√d (via
// Cauchy–Schwarz), c = d·e², and the r·s term covering the d float32
// multiply/accumulate roundings of the summation itself (FMA or not).
// Acceptance is sound because s32 ≤ eps2-B implies s ≤ s32+δ(eps2) ≤
// eps2 given B ≥ 2(a√eps2+r·eps2+c). Rejection is sound because B also
// satisfies δ(eps2+B) ≤ B: the 16a² term makes a√B ≤ B/4, r < 1/4 makes
// r·B ≤ B/4, and the remaining half of B absorbs δ(eps2). Non-finite s
// values fail both comparisons and land on the exact path; magnitudes
// at which the kernel's float32 arithmetic could overflow mid-sum
// disable the narrow classification entirely (infinite band). The band
// always exceeds exactBand, so float64 box sums compared against it
// (RadiusBlock) are sound too.
func (t *Tree) epsBand(dim int, eps2, qMax float64) float64 {
	const u = 1.0 / (1 << 24)
	const subnormalFloor = 6.0e-45
	mag := t.maxAbs + qMax
	if mag > 1e17 || eps2 > 1e30 {
		return math.Inf(1)
	}
	e := 3*mag*u + subnormalFloor
	d := float64(dim)
	a := 2 * e * math.Sqrt(d)
	c := d * e * e
	r := 4 * (d + 1) * u
	return 2*(a*math.Sqrt(eps2)+r*eps2+c) + 16*a*a
}

// exactBand is the exact path's band: the half-width around a squared
// radius s within which float64 sums of d squared per-dimension gaps
// may disagree with SqDistD's bits. Either sum — a box's nearest-point
// sum, or SqDistD over a point in the box — makes at most d+2 roundings
// of relative size 2⁻⁵³ (subtraction, product, additions), and products
// that underflow add an absolute error below 2⁻¹⁰⁷⁵ each. So a box sum
// above s+band puts every SqDistD inside the box above s; the factor 4
// leaves slack for both sums and their orders.
func exactBand(dim int, s float64) float64 {
	const u = 1.0 / (1 << 53)
	return 4*float64(dim+4)*u*s + float64(dim)*0x1p-1022
}

// selectNth partially sorts order[lo:hi] so that order[nth] holds the
// element of rank nth by coordinate dim (Hoare quickselect with
// median-of-three pivots).
func selectNth(ds *geom.Dataset, order []int32, lo, hi, nth int32, dim int) {
	coords, d := ds.Coords, ds.Dim
	coord := func(p int32) float64 { return coords[int(p)*d+dim] }
	for hi-lo > 1 {
		// Median-of-three pivot.
		a, b, c := coord(order[lo]), coord(order[(lo+hi)/2]), coord(order[hi-1])
		pivot := median3(a, b, c)
		i, j := lo, hi-1
		for i <= j {
			for coord(order[i]) < pivot {
				i++
			}
			for coord(order[j]) > pivot {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Size returns the number of points indexed.
func (t *Tree) Size() int { return len(t.order) }

// Order returns the tree's point permutation: every leaf owns a
// contiguous run of it, so consecutive entries are spatial neighbours.
// Querying points in this order keeps the upper nodes and the leaf
// blocks a query touches cache-resident for the next one. The slice is
// the tree's own; callers must not modify it.
func (t *Tree) Order() []int32 { return t.order[:len(t.order):len(t.order)] }

// BuildOps returns the metered construction work: the sum of subrange
// sizes over all created nodes, i.e. the Θ(n log n) term the cost model
// prices when the driver builds the tree. The count is identical
// whether the build ran serially or in parallel.
func (t *Tree) BuildOps() int64 { return t.buildOps }

// NodeCount returns the number of tree nodes (internal + leaf).
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Depth returns the maximum root-to-leaf depth (1 for a single leaf).
func (t *Tree) Depth() int {
	if t.root < 0 {
		return 0
	}
	return t.depth(t.root)
}

func (t *Tree) depth(ni int32) int {
	nd := &t.nodes[ni]
	if nd.splitDim < 0 {
		return 1
	}
	l, r := t.depth(nd.left), t.depth(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// MemoryBytes reports the broadcast payload size of the tree, used by
// the cost model when the driver ships the tree to executors: the node
// table at its unsafe.Sizeof-accurate size plus the order permutation,
// the packed leaf coordinates and the per-node bounding boxes.
func (t *Tree) MemoryBytes() int64 {
	const (
		nodeBytes  = int64(unsafe.Sizeof(node{}))
		int32Bytes = int64(unsafe.Sizeof(int32(0)))
		int64Bytes = int64(unsafe.Sizeof(int64(0)))
		f32Bytes   = int64(unsafe.Sizeof(float32(0)))
		f64Bytes   = int64(unsafe.Sizeof(float64(0)))
	)
	return nodeBytes*int64(len(t.nodes)) +
		int32Bytes*int64(len(t.order)) +
		int64Bytes*int64(len(t.leafOff)) +
		f32Bytes*int64(len(t.packed)+len(t.rect32)) +
		f64Bytes*int64(len(t.bboxMin)+len(t.bboxMax))
}

// boxMisses reports whether node ni's float64 box misses the eps ball
// of every point in the box [lo, hi]: the boxes' nearest-point squared
// distance exceeds sHi = eps2+band. That sum bounds every query–point
// pair's from below, and the band covers its rounding (see exactBand),
// so a box holding a neighbour is never excluded. A query point is the
// box [q, q], which makes this the exact path's point test too (d >
// maxKernelDim). The sum short-circuits (a predictable, rarely-taken
// branch), so far subtrees are rejected after a few dimensions. A NaN
// coordinate excludes nothing.
func (t *Tree) boxMisses(ni int32, lo, hi []float64, sHi float64) bool {
	d := len(lo)
	off := int(ni) * d
	mins := t.bboxMin[off : off+d : off+d]
	maxs := t.bboxMax[off : off+d : off+d]
	var minSq float64
	for j := range lo {
		// Nearest-gap contribution; the builtin max compiles branch-free.
		m := max(mins[j]-hi[j], lo[j]-maxs[j], 0)
		minSq += m * m
		if minSq > sHi {
			return true
		}
	}
	return false
}

// misses32 is boxMisses for a narrowed query point over the float32
// interleaved rect copy. The outward-rounded boxes make the float32
// nearest-point sum an underestimate of the exact one up to the
// arithmetic rounding the query's certainty band covers, so comparing
// it against sHi = eps2+band never excludes a box holding a neighbour.
func (t *Tree) misses32(ni int32, q32 []float32, sHi float64) bool {
	d := len(q32)
	off := int(ni) * 2 * d
	r := t.rect32[off : off+2*d : off+2*d]
	if d == 10 {
		// The paper's dimensionality gets a fully unrolled, branch-free
		// sum: on the search frontier the per-dimension early exit below
		// mispredicts roughly half the time, which costs more than the
		// ten spare multiplies.
		m0 := max(r[0]-q32[0], q32[0]-r[1], 0)
		m1 := max(r[2]-q32[1], q32[1]-r[3], 0)
		m2 := max(r[4]-q32[2], q32[2]-r[5], 0)
		m3 := max(r[6]-q32[3], q32[3]-r[7], 0)
		m4 := max(r[8]-q32[4], q32[4]-r[9], 0)
		m5 := max(r[10]-q32[5], q32[5]-r[11], 0)
		m6 := max(r[12]-q32[6], q32[6]-r[13], 0)
		m7 := max(r[14]-q32[7], q32[7]-r[15], 0)
		m8 := max(r[16]-q32[8], q32[8]-r[17], 0)
		m9 := max(r[18]-q32[9], q32[9]-r[19], 0)
		minSq := ((m0*m0 + m1*m1) + (m2*m2 + m3*m3)) +
			((m4*m4 + m5*m5) + (m6*m6 + m7*m7)) +
			(m8*m8 + m9*m9)
		return float64(minSq) > sHi
	}
	var minSq float32
	for j, v := range q32 {
		m := max(r[2*j]-v, v-r[2*j+1], 0)
		minSq += m * m
		if float64(minSq) > sHi {
			return true
		}
	}
	return false
}

// Radius implements Index.
func (t *Tree) Radius(q []float64, eps float64, out []int32, stats *SearchStats) []int32 {
	return t.search(q, eps, -1, out, stats)
}

// RadiusLimit implements Index.
func (t *Tree) RadiusLimit(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32 {
	return t.search(q, eps, max, out, stats)
}

// search walks the tree; max < 0 means unlimited. The cap counts
// appended neighbours, and radiusIter compares it against len(out), so
// a positive cap is offset by what out already holds.
func (t *Tree) search(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32 {
	if t.root < 0 || max == 0 {
		return out
	}
	var local SearchStats
	before := len(out)
	if max > 0 {
		max += before
	}
	out = t.radiusIter(q, eps*eps, max, out, &local)
	local.Reported = int64(len(out) - before)
	if stats != nil {
		stats.Add(local)
	}
	return out
}

// radiusIter is the iterative range search: pop a node, skip it if its
// bbox misses the query ball, otherwise scan (leaf) or descend
// (internal). The near child is pushed last so it is explored first,
// which lets RadiusLimit fill up with close neighbours before the cap
// triggers.
func (t *Tree) radiusIter(q []float64, eps2 float64, max int, out []int32, stats *SearchStats) []int32 {
	var qs query
	t.prepare(&qs, q, eps2)
	q32, sHi := qs.q32(), qs.sHi
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		stats.NodesVisited++
		var miss bool
		if q32 != nil {
			miss = t.misses32(ni, q32, sHi)
		} else {
			miss = t.boxMisses(ni, q, q, sHi)
		}
		if miss {
			continue
		}
		nd := &t.nodes[ni]
		if nd.splitDim < 0 {
			var capped bool
			out, capped = t.scanLeaf(ni, &qs, max, out, stats)
			if capped {
				return out
			}
			continue
		}
		// The children's own bbox tests subsume this hyperplane check,
		// but skipping a far child here is one multiply instead of a
		// pop + box test. It is exact: every point beyond the
		// plane has a gap on this axis at least |dd|, so SqDistD's
		// monotone sum is at least dd*dd. Near child is pushed last so it
		// pops first.
		dd := q[nd.splitDim] - nd.splitVal
		if dd > 0 {
			if dd*dd <= eps2 {
				stack[sp] = nd.left
				sp++
			}
			stack[sp] = nd.right
			sp++
		} else {
			if dd*dd <= eps2 {
				stack[sp] = nd.right
				sp++
			}
			stack[sp] = nd.left
			sp++
		}
	}
	return out
}

// scanLeaf appends leaf ni's neighbours for qs to out in leaf order,
// one staged chunk (leafHits) per copy. capped reports that the max
// cutoff fired mid-leaf.
func (t *Tree) scanLeaf(ni int32, qs *query, max int, out []int32, stats *SearchStats) (_ []int32, capped bool) {
	nd := &t.nodes[ni]
	stats.DistComps += int64(nd.end - nd.start)
	for lo := nd.start; lo < nd.end; lo += leafChunk {
		hits := qs.st.ids[:t.leafHits(ni, lo, qs)]
		if max >= 0 && len(out)+len(hits) >= max {
			return append(out, hits[:max-len(out)]...), true
		}
		out = append(out, hits...)
	}
	return out, false
}

// leafHits stages in qs.st.ids[:n], in leaf order, the n neighbours of
// qs among leaf ni's points at order positions [lo, lo+leafChunk).
//
// The float32 kernel (simd_amd64.s; portable twin in simd.go) packs the
// points at most sHi32 away off the leaf's dimension-major block,
// together with their distances. When every packed distance is at or
// below sLo32, they are all neighbours as they stand. Otherwise each
// packed point is resolved against the certainty band: above sHi it is
// dropped, at or below sLo kept, and in between (or NaN) decided by
// its exact float64 distance. Without a narrowed query, or when an
// infinite or NaN sHi32 would let the kernel's +Inf pad slots pass,
// the float64 rows are tested with SqDistDFiltered, whose completed
// sums are SqDistD's bits. (An infinite query coordinate makes the
// band, and so sHi32, infinite. A NaN one packs the pad slots as NaN,
// and their exact distances, NaN too, drop them.)
func (t *Tree) leafHits(ni, lo int32, qs *query) int {
	nd := &t.nodes[ni]
	hi := min(nd.end, lo+leafChunk)
	st := &qs.st
	q, eps2 := qs.q, qs.eps2
	if !qs.narrow || !(qs.sHi32 <= math.MaxFloat32) {
		n := 0
		for _, p := range t.order[lo:hi] {
			if s, ok := geom.SqDistDFiltered(q, t.ds.At(p), eps2); ok && s <= eps2 {
				st.ids[n] = p
				n++
			}
		}
		return n
	}
	mPad := (int(nd.end-nd.start) + 7) &^ 7
	off := t.leafOff[ni] + int64(lo-nd.start)
	cnt := (int(hi-lo) + 7) &^ 7
	n, unsure := leafPack(qs.q32(), t.packed[off:], mPad, t.order[lo:int(lo)+cnt], cnt, st, qs.sLo32, qs.sHi32)
	if !unsure {
		return n
	}
	w := 0
	for k, p := range st.ids[:n] {
		s := float64(st.dist[k])
		if s > qs.sHi || !(s <= qs.sLo) && !(geom.SqDistD(q, t.ds.At(p)) <= eps2) {
			continue
		}
		st.ids[w] = p
		w++
	}
	return w
}

// roundUp32 converts v to the smallest float32 not below it (NaN stays
// NaN), so the kernel's float32 threshold never drops candidates the
// float64 threshold admits.
func roundUp32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// LeafOrdered returns the tree's dataset in leaf order, whose point k is
// point Order()[k] of the tree's dataset, together with a tree over it.
// The returned tree shares this tree's nodes, boxes and packed leaves;
// only its Order is the identity. So its answers are this tree's, with
// every id p replaced by p's position in Order(). It takes one O(n·d)
// copy and no rebuild. Labels are not carried over.
func (t *Tree) LeafOrdered() (*geom.Dataset, *Tree) {
	n := len(t.order)
	ds := geom.NewDataset(n, t.ds.Dim)
	ds.Name = t.ds.Name
	for k, p := range t.order {
		ds.Set(int32(k), t.ds.At(p))
	}
	lt := *t
	lt.ds = ds
	// Capacity n+7, as buildTree's: the leaf kernel's 8-lane id loads
	// read the last leaf's pad slots.
	lt.order = make([]int32, n, n+7)
	for i := range lt.order {
		lt.order[i] = int32(i)
	}
	return ds, &lt
}
