package core

import (
	"fmt"
	"math"

	"sparkdbscan/internal/geom"
)

// CellGrid is the driver-planned spatial decomposition of the cell
// partitioner: an axis-aligned grid over the dataset's bounding box. A
// point lives in exactly one home cell; its eps-halo replicas go to
// every other cell whose envelope is within eps of it.
//
// The grid is deliberately anisotropic: the planner splits as few axes
// as occupancy requires and leaves the rest whole (one cell spanning
// the full extent). In high dimensions this is what keeps the halo
// affordable — every split axis multiplies the number of neighbor
// cells a boundary point must be replicated into, so a 10-axis grid at
// eps-scale sides replicates each point dozens to thousands of times,
// while two or three split axes bound the factor at a handful.
//
// Cells are identified by their *rank*: the row-major mixed-radix
// number of their per-axis coordinates over Dims, axis 0 most
// significant. Unsplit axes have Dims 1 and add nothing. Rank order is
// lexicographic coordinate order. A rank is an int64, so it exists only
// for grids whose NumCells does not saturate; the cell stage rejects
// the others. Only non-empty cells ever materialize driver-side state.
type CellGrid struct {
	Dim   int
	Min   []float64 // lower corner of the bounding box
	Sides []float64 // per-axis cell edge length (unsplit axes span the whole extent)
	Dims  []int32   // cells per axis (1 on unsplit axes)
	Eps   float64   // halo radius
	// SplitSide is the edge length shared by the split axes; SplitAxes
	// counts them. Diagnostics — the geometry lives in Sides/Dims.
	SplitSide float64
	SplitAxes int
	Ring      int // ceil(Eps/SplitSide): neighbor layers the halo can reach per split axis
	// PlanOps counts the sampled quantizations the side derivation
	// performed (zero when the side was forced); the driver charges
	// them as planning work.
	PlanOps int64
}

// epsInflate is the relative inflation applied to eps in envelope-halo
// tests, so floating-point rounding can never exclude a neighbor cell
// that a point-to-point distance test would reach (the halo must be a
// superset of every home point's eps-neighborhood).
const epsInflate = 1e-12

// planSampleCap bounds the sample the side derivation quantizes per
// bisection step, so planning cost is O(sample), not O(n) — the same
// reason Spark's RangePartitioner samples instead of scanning.
const planSampleCap = 2048

// PlanCellGrid builds the grid for ds: cellSide > 0 forces that edge
// length on every axis (values below eps are legal and exercise
// multi-ring halos); cellSide == 0 derives the grid by occupancy — the
// fewest split axes and the largest side >= eps such that the most
// loaded cell holds at most targetPerCell home points (estimated from
// a deterministic stride sample). Occupancy, not nominal cell count,
// is the criterion: an unsplit dense cluster serializes its whole
// workload into one task. Derived sides never go below eps, so derived
// halos always span a single ring; a cluster tighter than eps cannot
// be split further and the floor is accepted.
func PlanCellGrid(ds *geom.Dataset, eps, cellSide float64, targetPerCell int) (*CellGrid, error) {
	n := ds.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: cannot plan a cell grid over an empty dataset")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("core: cell grid needs eps > 0, got %g", eps)
	}
	if targetPerCell <= 0 {
		targetPerCell = defaultTargetPointsPerCell
	}
	bounds := ds.Bounds()
	dim := ds.Dim

	// whole[j] is the side that leaves axis j unsplit: one cell covering
	// the full extent with slack, so no point ever sits near its walls.
	whole := make([]float64, dim)
	maxExtent := 0.0
	for j := 0; j < dim; j++ {
		e := bounds.Max[j] - bounds.Min[j]
		whole[j] = e + 2*eps
		if e > maxExtent {
			maxExtent = e
		}
	}

	g := &CellGrid{
		Dim: dim,
		Min: append([]float64(nil), bounds.Min...),
		Eps: eps,
	}
	if cellSide > 0 {
		g.Sides = make([]float64, dim)
		for j := range g.Sides {
			g.Sides[j] = cellSide
		}
		g.SplitSide = cellSide
		g.SplitAxes = dim
	} else {
		// Greedy derivation: try splitting the k widest axes for k = 1,
		// 2, ... and stop at the first k that can meet the occupancy
		// target with side >= eps; then take the largest such side
		// (bigger cells mean fewer boundary crossings, hence less halo).
		order := bounds.WidestAxes()

		stride := (n + planSampleCap - 1) / planSampleCap
		sampled := (n + stride - 1) / stride
		// estMaxLoad estimates the most loaded cell's home-point count
		// when the first k axes of order are split at the given side:
		// max bucket over the sample, scaled back by the sampling ratio.
		// Unsplit axes put every point at coordinate 0, so a bucket is
		// a path through a trie over the split axes' coordinates. Trie
		// node ids are dense, so a trial grid too fine for an int64
		// rank is still counted exactly.
		estMaxLoad := func(k int, side float64) int {
			child := make(map[[2]int64]int32, sampled)
			var load []int // per trie node; only leaves count
			most := 0
			for i := 0; i < n; i += stride {
				p := ds.At(int32(i))
				g.PlanOps++
				node := int64(-1)
				for _, a := range order[:k] {
					edge := [2]int64{node, geom.CellCoord(p[a], bounds.Min[a], side)}
					id, ok := child[edge]
					if !ok {
						id = int32(len(load))
						child[edge] = id
						load = append(load, 0)
					}
					node = int64(id)
				}
				load[node]++
				if load[node] > most {
					most = load[node]
				}
			}
			return int(int64(most) * int64(n) / int64(sampled))
		}

		k, side := dim, eps // the floor: every axis split at eps
		hi := maxExtent + eps
	search:
		for try := 1; try <= dim; try++ {
			if estMaxLoad(try, eps) > targetPerCell {
				continue // even the finest legal side can't split enough
			}
			k = try
			if estMaxLoad(try, hi) <= targetPerCell {
				side = hi // nominal split; everything fits one cell per axis
				break search
			}
			lo := eps // admissible; hi is not — largest admissible side
			for i := 0; i < 40; i++ {
				mid := (lo + hi) / 2
				if estMaxLoad(try, mid) <= targetPerCell {
					lo = mid
				} else {
					hi = mid
				}
			}
			side = lo
			break search
		}
		g.Sides = make([]float64, dim)
		copy(g.Sides, whole)
		for _, a := range order[:k] {
			g.Sides[a] = side
		}
		g.SplitSide = side
		g.SplitAxes = k
	}

	g.Ring = int(math.Ceil(eps / g.SplitSide))
	g.Dims = make([]int32, dim)
	for j := 0; j < dim; j++ {
		extent := bounds.Max[j] - bounds.Min[j]
		k := int64(math.Ceil(extent / g.Sides[j]))
		if k < 1 {
			k = 1
		}
		if k > math.MaxInt32 {
			return nil, fmt.Errorf("core: cell side %g yields %d cells on axis %d", g.Sides[j], k, j)
		}
		g.Dims[j] = int32(k)
	}
	return g, nil
}

// NumCells returns the nominal grid size (product of Dims), saturating
// at MaxInt64. The grid is never materialized; a saturated count means
// its cells have no int64 rank.
func (g *CellGrid) NumCells() int64 {
	total := int64(1)
	for _, k := range g.Dims {
		if total > math.MaxInt64/int64(k) {
			return math.MaxInt64
		}
		total *= int64(k)
	}
	return total
}

// coordOf returns the per-axis cell coordinate of v along axis j,
// clamped into the grid (boundary points land in the last cell).
func (g *CellGrid) coordOf(v float64, j int) int32 {
	c := geom.CellCoord(v, g.Min[j], g.Sides[j])
	if c < 0 {
		c = 0
	}
	if c >= int64(g.Dims[j]) {
		c = int64(g.Dims[j]) - 1
	}
	return int32(c)
}

// KeyOf returns the rank of point p's home cell.
func (g *CellGrid) KeyOf(p []float64) int64 {
	var rank int64
	for j := 0; j < g.Dim; j++ {
		rank = rank*int64(g.Dims[j]) + int64(g.coordOf(p[j], j))
	}
	return rank
}

// Envelope returns the closed axis-aligned box of the cell with the
// given coordinates.
func (g *CellGrid) Envelope(coords []int32) geom.Rect {
	r := geom.Rect{Min: make([]float64, g.Dim), Max: make([]float64, g.Dim)}
	for j := 0; j < g.Dim; j++ {
		r.Min[j] = g.Min[j] + float64(coords[j])*g.Sides[j]
		r.Max[j] = r.Min[j] + g.Sides[j]
	}
	return r
}

// HaloCells enumerates every cell other than p's home cell whose
// envelope lies within eps of p — the cells that must receive a halo
// replica of p so their local clustering sees p's entire
// eps-neighborhood. yield is called once per such cell with its rank,
// in ascending rank order. home is scratch of length g.Dim that
// receives p's home coordinates; a caller that reuses it across points
// enumerates without allocating. The return value counts candidate
// interval evaluations (for metering): the enumeration walks the
// ring-layer neighborhood with a per-axis running squared distance,
// pruning subtrees of the coordinate odometer as soon as the partial
// distance exceeds eps.
func (g *CellGrid) HaloCells(p []float64, home []int32, yield func(rank int64)) int64 {
	eps := g.Eps * (1 + epsInflate)
	interior := true
	for j := 0; j < g.Dim; j++ {
		home[j] = g.coordOf(p[j], j)
		lo := g.Min[j] + float64(home[j])*g.Sides[j]
		if (home[j] > 0 && p[j]-lo <= eps) ||
			(home[j] < g.Dims[j]-1 && lo+g.Sides[j]-p[j] <= eps) {
			interior = false
		}
	}
	if interior {
		// Fast path: on every axis, p is more than eps from each wall it
		// shares with a neighbor cell, so no other cell is within eps.
		return 0
	}
	h := haloWalk{g: g, p: p, home: home, eps: eps, eps2: eps * eps, yield: yield}
	h.walk(0, 0, 0, false)
	return h.evals
}

// haloWalk is one HaloCells enumeration's state, kept on the caller's
// stack.
type haloWalk struct {
	g         *CellGrid
	p         []float64
	home      []int32
	eps, eps2 float64
	evals     int64
	yield     func(rank int64)
}

// walk enumerates axis j onward given the squared distance accumulated
// over axes < j, the rank prefix of the coordinates chosen on them, and
// whether any of those differs from the home cell's.
func (h *haloWalk) walk(j int, partial float64, rank int64, away bool) {
	g, p := h.g, h.p
	if j == g.Dim {
		if away {
			h.yield(rank)
		}
		return
	}
	ring := int32(math.Ceil(h.eps / g.Sides[j]))
	lo := h.home[j] - ring
	if lo < 0 {
		lo = 0
	}
	hi := h.home[j] + ring
	if hi > g.Dims[j]-1 {
		hi = g.Dims[j] - 1
	}
	for c := lo; c <= hi; c++ {
		h.evals++
		cellLo := g.Min[j] + float64(c)*g.Sides[j]
		d := 0.0
		if p[j] < cellLo {
			d = cellLo - p[j]
		} else if p[j] > cellLo+g.Sides[j] {
			d = p[j] - (cellLo + g.Sides[j])
		}
		next := partial + d*d
		if next > h.eps2 {
			continue
		}
		h.walk(j+1, next, rank*int64(g.Dims[j])+int64(c), away || c != h.home[j])
	}
}

// SizeBytes estimates the serialized size of the grid itself (bounds,
// sides, dims, scalars) for broadcast accounting.
func (g *CellGrid) SizeBytes() int64 {
	return int64(g.Dim)*(8+8+4) + 8*4
}
