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
// misses the query ball entirely and report subtrees whose box lies
// inside it wholesale; and traversals are iterative over an explicit
// stack. Narrowed float32 classifications stay exact through an
// interval band around eps² (see epsBand).
//
// Every search can meter its work into a SearchStats so the virtual
// cluster can charge simulated time proportional to the real number of
// nodes visited and distances computed.
package kdtree

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"

	"sparkdbscan/internal/geom"
)

// SearchStats accumulates the work performed by one or more queries.
// The cost model converts these counts into simulated time.
type SearchStats struct {
	NodesVisited  int64 // tree nodes touched (internal + leaf)
	NodesIncluded int64 // subtrees reported wholesale by bbox inclusion
	DistComps     int64 // full d-dimensional distance computations
	Reported      int64 // neighbours returned
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.NodesVisited += other.NodesVisited
	s.NodesIncluded += other.NodesIncluded
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
//     scanned brute-force and queried alongside the frozen Tree.
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
	// neighbourhood; which subset depends on tree layout.
	RadiusLimit(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32
	// RadiusCount returns the size of the eps-neighbourhood of q.
	RadiusCount(q []float64, eps float64, stats *SearchStats) int
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
	// start, end delimit the subtree's range into Tree.order (and the
	// leaf-packed coordinate blocks). It is populated for internal nodes
	// too, so bbox inclusion can report a whole subtree as one
	// contiguous copy.
	start, end int32
	splitVal   float64
}

// Tree is a static bucketed kd-tree over a dataset. It is immutable
// after Build and safe for concurrent queries.
type Tree struct {
	ds    *geom.Dataset
	nodes []node
	order []int32 // permutation of point indices; nodes own sub-ranges
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
	// always contains the exact one. Outward rounding keeps the
	// conservative classification sound (see rectTest32); interleaving
	// halves the cache lines a box test touches. Nearest keeps using the
	// exact float64 boxes.
	rect32 []float32
	// halfDiagSq holds each box's squared half-diagonal. A box can only
	// lie inside a query ball if its half-diagonal is at most eps (the
	// farthest corner from any point is at least that far), so one scalar
	// compare gates the whole-box inclusion test — in high dimensions,
	// where boxes are wide relative to useful eps values, the inclusion
	// arithmetic is skipped at almost every node.
	halfDiagSq []float64
	root       int32
	leafSize   int
	buildOps   int64
}

var _ Index = (*Tree)(nil)

// Build constructs a tree over ds with the default leaf size.
func Build(ds *geom.Dataset) *Tree { return BuildLeafSize(ds, defaultLeafSize) }

// BuildLeafSize constructs a tree whose leaves hold at most leafSize
// points. Splits are made at the median of the widest-spread dimension,
// which keeps the tree balanced (depth O(log n)) even for clustered
// inputs. Large builds are parallelized: once subranges drop below a
// cutoff they are handed to a bounded goroutine pool, each worker
// building its subtree into private arrays that are stitched into the
// final node table afterwards. The resulting tree is bit-identical
// regardless of worker count.
func BuildLeafSize(ds *geom.Dataset, leafSize int) *Tree {
	return buildTree(ds, leafSize, runtime.GOMAXPROCS(0))
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

func buildTree(ds *geom.Dataset, leafSize, workers int) *Tree {
	if leafSize < 1 {
		leafSize = 1
	}
	n := ds.Len()
	t := &Tree{
		ds:       ds,
		order:    make([]int32, n),
		leafSize: leafSize,
	}
	for i := range t.order {
		t.order[i] = int32(i)
	}
	if n == 0 {
		t.root = -1
		return t
	}
	if workers < 1 {
		workers = 1
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

	if len(jobs) > 0 {
		subs := make([]*builder, len(jobs))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for ji := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(ji int) {
				defer wg.Done()
				defer func() { <-sem }()
				sb := newBuilder(ds, t.order, leafSize)
				sb.build(jobs[ji].lo, jobs[ji].hi, 0, nil)
				subs[ji] = sb
			}(ji)
		}
		wg.Wait()
		for ji := range jobs {
			b.graft(&jobs[ji], subs[ji])
		}
	}
	t.nodes, t.bboxMin, t.bboxMax = b.nodes, b.bboxMin, b.bboxMax
	t.halfDiagSq = b.halfDiagSq
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
	halfDiagSq []float64
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
	self := b.emit(node{splitDim: int32(dim), splitVal: splitVal, start: lo, end: hi})
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
	var hd float64
	for j := range b.mins {
		span := (b.maxs[j] - b.mins[j]) / 2
		hd += span * span
	}
	b.halfDiagSq = append(b.halfDiagSq, hd)
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
	b.halfDiagSq = append(b.halfDiagSq, sub.halfDiagSq...)
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
		// Pad slots hold +Inf: their kernel distances come out +Inf (or
		// NaN for non-finite queries) and the result loops never read
		// past the leaf's true point count anyway.
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
// kernel (a stack-resident narrowed query). Wider queries — far beyond
// anything the paper runs — scan the exact float64 rows instead.
const maxKernelDim = 32

// narrowQuery converts q into the caller's stack buffer for the float32
// leaf kernel and returns the largest query magnitude, which the error
// band depends on. A nil result routes leaf scans to the exact path.
func (t *Tree) narrowQuery(q []float64, buf *[maxKernelDim]float32) ([]float32, float64) {
	if len(q) != t.ds.Dim || len(q) > maxKernelDim {
		return nil, 0
	}
	var qMax float64
	for j, v := range q {
		buf[j] = float32(v)
		if a := math.Abs(v); a > qMax {
			qMax = a
		}
	}
	return buf[:len(q)], qMax
}

// epsBand returns the half-width B of the uncertainty band around eps2
// for squared distances computed by the float32 leaf kernel: a
// candidate is accepted outright if s32 <= eps2-B, rejected outright if
// s32 > eps2+B, and resolved against the exact float64 coordinates
// otherwise.
//
// Derivation: narrowing a coordinate loses at most maxAbs·2⁻²⁴ (half a
// ulp at the largest magnitude; same for the query side with qMax, one
// more ulp for the outward-rounded rect bounds rectTest32 consumes),
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
// disable the narrow classification entirely (infinite band).
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
		f64Bytes*int64(len(t.bboxMin)+len(t.bboxMax)+len(t.halfDiagSq))
}

// Outcomes of the fused bbox-vs-query-ball classification.
const (
	rectOutside = iota // bbox misses the ball: skip the subtree
	rectPartial        // bbox straddles the ball: descend / scan
	rectInside         // bbox inside the ball: report wholesale
)

// rectTest classifies node ni's bounding box against the ball of
// squared radius eps2 around q. The per-dimension nearest/farthest
// contributions use the builtin float max, which compiles branch-free —
// data-dependent branches here mispredict ~50% on boundary nodes and
// dominate traversal cost. The exclusion sum short-circuits (a
// predictable, rarely-taken branch) so far subtrees are rejected after
// a dimension or two; the inclusion sum runs only when the precomputed
// half-diagonal says inclusion is geometrically possible at all.
func (t *Tree) rectTest(ni int32, q []float64, eps2 float64) int {
	d := len(q)
	off := int(ni) * d
	mins := t.bboxMin[off : off+d : off+d]
	maxs := t.bboxMax[off : off+d : off+d]
	var minSq float64
	if d == 10 {
		// The paper's dimensionality gets a fully unrolled, branch-free
		// exclusion sum: on the search frontier the per-dimension early
		// exit below mispredicts roughly half the time, which costs more
		// than the ten spare multiplies.
		m0 := max(mins[0]-q[0], q[0]-maxs[0], 0)
		m1 := max(mins[1]-q[1], q[1]-maxs[1], 0)
		m2 := max(mins[2]-q[2], q[2]-maxs[2], 0)
		m3 := max(mins[3]-q[3], q[3]-maxs[3], 0)
		m4 := max(mins[4]-q[4], q[4]-maxs[4], 0)
		m5 := max(mins[5]-q[5], q[5]-maxs[5], 0)
		m6 := max(mins[6]-q[6], q[6]-maxs[6], 0)
		m7 := max(mins[7]-q[7], q[7]-maxs[7], 0)
		m8 := max(mins[8]-q[8], q[8]-maxs[8], 0)
		m9 := max(mins[9]-q[9], q[9]-maxs[9], 0)
		minSq = ((m0*m0 + m1*m1) + (m2*m2 + m3*m3)) +
			((m4*m4 + m5*m5) + (m6*m6 + m7*m7)) +
			(m8*m8 + m9*m9)
		if minSq > eps2 {
			return rectOutside
		}
	} else {
		for j, v := range q {
			// Nearest-point contribution: max(lo-v, v-hi, 0).
			m := max(mins[j]-v, v-maxs[j], 0)
			minSq += m * m
			if minSq > eps2 {
				return rectOutside
			}
		}
	}
	if t.halfDiagSq[ni] > eps2 {
		// The farthest corner is at least half a diagonal from any query
		// point; a box wider than the ball can never be inside it.
		return rectPartial
	}
	var maxSq float64
	for j, v := range q {
		// Farthest-corner contribution: max(v-lo, hi-v).
		f := max(v-mins[j], maxs[j]-v)
		maxSq += f * f
	}
	if maxSq <= eps2 {
		return rectInside
	}
	return rectPartial
}

// rectTest32 is the query-path box classification over the float32
// interleaved rect copy. The outward-rounded boxes make the float32
// nearest-point sum an underestimate of the exact one up to the
// arithmetic rounding covered by the query's certainty band, so
// exclusion compares against sHi = eps2+band; symmetrically the
// farthest-corner sum overestimates and inclusion compares against
// sLo = eps2-band. Boundary boxes land on rectPartial and are resolved
// by descent — never misclassified.
func (t *Tree) rectTest32(ni int32, q32 []float32, eps2, sLo, sHi float64) int {
	d := len(q32)
	off := int(ni) * 2 * d
	r := t.rect32[off : off+2*d : off+2*d]
	var minSq float32
	if d == 10 {
		// Branch-free unrolled exclusion sum for the paper's
		// dimensionality; see rectTest for why.
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
		minSq = ((m0*m0 + m1*m1) + (m2*m2 + m3*m3)) +
			((m4*m4 + m5*m5) + (m6*m6 + m7*m7)) +
			(m8*m8 + m9*m9)
		if float64(minSq) > sHi {
			return rectOutside
		}
	} else {
		for j, v := range q32 {
			m := max(r[2*j]-v, v-r[2*j+1], 0)
			minSq += m * m
			if float64(minSq) > sHi {
				return rectOutside
			}
		}
	}
	if t.halfDiagSq[ni] > eps2 {
		return rectPartial
	}
	var maxSq float32
	for j, v := range q32 {
		f := max(v-r[2*j], r[2*j+1]-v)
		maxSq += f * f
	}
	if float64(maxSq) <= sLo {
		return rectInside
	}
	return rectPartial
}

// rectMinSq returns the squared distance from q to node ni's bounding
// box (0 if q is inside), short-circuiting once it exceeds limit.
func (t *Tree) rectMinSq(ni int32, q []float64, limit float64) float64 {
	d := len(q)
	off := int(ni) * d
	mins := t.bboxMin[off : off+d : off+d]
	maxs := t.bboxMax[off : off+d : off+d]
	var minSq float64
	for j, v := range q {
		m := max(mins[j]-v, v-maxs[j], 0)
		minSq += m * m
		if minSq > limit {
			return minSq
		}
	}
	return minSq
}

// Radius implements Index.
func (t *Tree) Radius(q []float64, eps float64, out []int32, stats *SearchStats) []int32 {
	return t.search(q, eps, -1, out, stats)
}

// RadiusLimit implements Index.
func (t *Tree) RadiusLimit(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32 {
	if max < 0 {
		max = 0
	}
	return t.search(q, eps, max, out, stats)
}

// RadiusCount implements Index.
func (t *Tree) RadiusCount(q []float64, eps float64, stats *SearchStats) int {
	if t.root < 0 {
		return 0
	}
	var local SearchStats
	count := t.countIter(q, eps*eps, &local)
	local.Reported = int64(count)
	if stats != nil {
		stats.Add(local)
	}
	return count
}

// search walks the tree; max < 0 means unlimited.
func (t *Tree) search(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32 {
	if t.root < 0 || max == 0 {
		return out
	}
	var local SearchStats
	before := len(out)
	out = t.radiusIter(q, eps*eps, max, out, &local)
	local.Reported = int64(len(out) - before)
	if stats != nil {
		stats.Add(local)
	}
	return out
}

// radiusIter is the single-query range search entry: it narrows the
// query, derives its certainty band, and hands off to radiusScan.
func (t *Tree) radiusIter(q []float64, eps2 float64, max int, out []int32, stats *SearchStats) []int32 {
	var q32buf [maxKernelDim]float32
	q32, qMax := t.narrowQuery(q, &q32buf)
	band := t.epsBand(len(q), eps2, qMax)
	return t.radiusScan(q, q32, eps2, band, max, out, stats)
}

// radiusScan is the iterative range search: pop a node, skip it if its
// bbox misses the query ball, report its whole order range if the bbox
// sits inside the ball, otherwise scan (leaf) or descend (internal).
// The near child is pushed last so it is explored first, which lets
// RadiusLimit fill up with close neighbours before the cap triggers.
// The caller supplies the narrowed query (nil routes leaves to the
// exact path) and the certainty band; RadiusBatch reuses one band for
// a whole batch of queries.
func (t *Tree) radiusScan(q []float64, q32 []float32, eps2, band float64, max int, out []int32, stats *SearchStats) []int32 {
	if t.root < 0 {
		return out
	}
	sLo, sHi := eps2-band, eps2+band
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		stats.NodesVisited++
		var cls int
		if q32 != nil {
			cls = t.rectTest32(ni, q32, eps2, sLo, sHi)
		} else {
			cls = t.rectTest(ni, q, eps2)
		}
		if cls == rectOutside {
			continue
		}
		nd := &t.nodes[ni]
		if cls == rectInside {
			stats.NodesIncluded++
			take := int(nd.end - nd.start)
			if max >= 0 && len(out)+take > max {
				take = max - len(out)
			}
			out = append(out, t.order[nd.start:nd.start+int32(take)]...)
			if max >= 0 && len(out) >= max {
				return out
			}
			continue
		}
		if nd.splitDim < 0 {
			var capped bool
			out, capped = t.scanLeaf(ni, q, q32, eps2, sLo, sHi, max, out, stats)
			if capped {
				return out
			}
			continue
		}
		// The children's own bbox tests subsume this hyperplane check,
		// but skipping a far child here is one multiply instead of a
		// pop + rect classification. Near child is pushed last so it
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

// leafChunk is the number of candidate distances buffered per kernel
// call: 1 KiB of stack, one call for any normal leaf, chunked for the
// oversized leaves degenerate (all-identical) ranges produce.
const leafChunk = 256

// scanLeaf classifies one leaf's candidates. The float32 kernel fills a
// stack buffer with 8 squared distances per instruction stream off the
// leaf's dimension-major block (simd_amd64.s; portable fallback in
// simd.go); the result loop then resolves each candidate against the
// certainty band, re-checking exact float64 coordinates only inside it.
// capped reports that the max cutoff fired mid-leaf.
func (t *Tree) scanLeaf(ni int32, q []float64, q32 []float32, eps2, sLo, sHi float64, max int, out []int32, stats *SearchStats) (_ []int32, capped bool) {
	nd := &t.nodes[ni]
	m := int(nd.end - nd.start)
	stats.DistComps += int64(m)
	order := t.order
	if q32 == nil {
		// No narrowed query (dim > maxKernelDim or a mismatched query
		// width): scan the exact float64 rows.
		for oi := nd.start; oi < nd.end; oi++ {
			if geom.SqDistEarly(q, t.ds.At(order[oi]), eps2) <= eps2 {
				out = append(out, order[oi])
				if max >= 0 && len(out) >= max {
					return out, true
				}
			}
		}
		return out, false
	}
	mPad := (m + 7) &^ 7
	off := t.leafOff[ni]
	sHi32 := roundUp32(sHi)
	var buf [leafChunk]float32
	var mbuf [leafChunk / 8]uint8
	for i0 := 0; i0 < m; i0 += leafChunk {
		cnt := mPad - i0
		if cnt > leafChunk {
			cnt = leafChunk
		}
		leafSqDists(q32, t.packed[off+int64(i0):], mPad, cnt, buf[:cnt], mbuf[:cnt/8], sHi32)
		stop := m - i0
		if stop > cnt {
			stop = cnt
		}
		// Only mask-passing candidates are touched: the typical leaf has
		// zero or few, so the result loop skips whole 8-point blocks.
		for bi := 0; bi < cnt/8; bi++ {
			bm := mbuf[bi]
			for bm != 0 {
				k := bi*8 + bits.TrailingZeros8(bm)
				bm &= bm - 1
				if k >= stop { // padding slots (non-finite thresholds only)
					break
				}
				s := float64(buf[k])
				if s > sHi { // float32 threshold rounded up; re-filter
					continue
				}
				oi := nd.start + int32(i0+k)
				if !(s <= sLo) { // uncertain, including NaN: exact re-check
					if !(geom.SqDistD(q, t.ds.At(order[oi])) <= eps2) {
						continue
					}
				}
				out = append(out, order[oi])
				if max >= 0 && len(out) >= max {
					return out, true
				}
			}
		}
	}
	return out, false
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

// countIter mirrors radiusIter without materializing results.
func (t *Tree) countIter(q []float64, eps2 float64, stats *SearchStats) int {
	var q32buf [maxKernelDim]float32
	q32, qMax := t.narrowQuery(q, &q32buf)
	band := t.epsBand(len(q), eps2, qMax)
	sLo, sHi := eps2-band, eps2+band
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	count := 0
	for sp > 0 {
		sp--
		ni := stack[sp]
		stats.NodesVisited++
		var cls int
		if q32 != nil {
			cls = t.rectTest32(ni, q32, eps2, sLo, sHi)
		} else {
			cls = t.rectTest(ni, q, eps2)
		}
		if cls == rectOutside {
			continue
		}
		nd := &t.nodes[ni]
		if cls == rectInside {
			stats.NodesIncluded++
			count += int(nd.end - nd.start)
			continue
		}
		if nd.splitDim < 0 {
			count += t.countLeaf(ni, q, q32, eps2, sLo, sHi, stats)
			continue
		}
		dd := q[nd.splitDim] - nd.splitVal
		if dd*dd <= eps2 {
			stack[sp] = nd.left
			stack[sp+1] = nd.right
			sp += 2
		} else if dd > 0 {
			stack[sp] = nd.right
			sp++
		} else {
			stack[sp] = nd.left
			sp++
		}
	}
	return count
}

// countLeaf is scanLeaf without materialization; same kernel and band
// resolution.
func (t *Tree) countLeaf(ni int32, q []float64, q32 []float32, eps2, sLo, sHi float64, stats *SearchStats) int {
	nd := &t.nodes[ni]
	m := int(nd.end - nd.start)
	stats.DistComps += int64(m)
	count := 0
	if q32 == nil {
		for oi := nd.start; oi < nd.end; oi++ {
			if geom.SqDistEarly(q, t.ds.At(t.order[oi]), eps2) <= eps2 {
				count++
			}
		}
		return count
	}
	mPad := (m + 7) &^ 7
	off := t.leafOff[ni]
	sHi32 := roundUp32(sHi)
	var buf [leafChunk]float32
	var mbuf [leafChunk / 8]uint8
	for i0 := 0; i0 < m; i0 += leafChunk {
		cnt := mPad - i0
		if cnt > leafChunk {
			cnt = leafChunk
		}
		leafSqDists(q32, t.packed[off+int64(i0):], mPad, cnt, buf[:cnt], mbuf[:cnt/8], sHi32)
		stop := m - i0
		if stop > cnt {
			stop = cnt
		}
		for bi := 0; bi < cnt/8; bi++ {
			bm := mbuf[bi]
			for bm != 0 {
				k := bi*8 + bits.TrailingZeros8(bm)
				bm &= bm - 1
				if k >= stop {
					break
				}
				s := float64(buf[k])
				if s > sHi {
					continue
				}
				if !(s <= sLo) {
					oi := nd.start + int32(i0+k)
					if !(geom.SqDistD(q, t.ds.At(t.order[oi])) <= eps2) {
						continue
					}
				}
				count++
			}
		}
	}
	return count
}

// Nearest returns the index of the point closest to q and its distance.
// It returns (-1, +Inf) on an empty tree. DBSCAN does not need it, but
// the geospatial example does.
func (t *Tree) Nearest(q []float64) (int32, float64) {
	if t.root < 0 {
		return -1, math.Inf(1)
	}
	best := int32(-1)
	bestSq := math.Inf(1)
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if t.rectMinSq(ni, q, bestSq) >= bestSq {
			continue
		}
		nd := &t.nodes[ni]
		if nd.splitDim < 0 {
			// Nearest needs exact comparisons against a moving threshold,
			// so it reads the original float64 coordinates rather than
			// the narrowed packed copy.
			for oi := nd.start; oi < nd.end; oi++ {
				if sq := geom.SqDistEarly(q, t.ds.At(t.order[oi]), bestSq); sq < bestSq {
					best, bestSq = t.order[oi], sq
				}
			}
			continue
		}
		// Push the far child first so the near child is explored first
		// and tightens bestSq before the far side is reconsidered.
		if q[nd.splitDim] > nd.splitVal {
			stack[sp] = nd.left
			stack[sp+1] = nd.right
		} else {
			stack[sp] = nd.right
			stack[sp+1] = nd.left
		}
		sp += 2
	}
	return best, math.Sqrt(bestSq)
}
