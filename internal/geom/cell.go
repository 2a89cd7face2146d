package geom

import (
	"math"
	"sort"
)

// MaxCell bounds the magnitude of a cell coordinate: CellCoord
// saturates at ±MaxCell instead of overflowing, so coordinates far
// outside the grid's origin land in the outermost cells.
const MaxCell = 1 << 52

// CellCoord returns the coordinate floor((v-origin)/side) of the cell
// holding v on an axis cut into cells of width side, starting at
// origin, saturated to [-MaxCell, MaxCell] (a NaN lands at -MaxCell).
//
// It is monotone non-decreasing in v: every step (subtraction,
// division, floor, saturation) is, because IEEE rounding is. Grids
// rely on that to bound a query box: for floats lo <= v <= hi,
// CellCoord(lo) <= CellCoord(v) <= CellCoord(hi).
func CellCoord(v, origin, side float64) int64 {
	c := math.Floor((v - origin) / side)
	if c >= MaxCell {
		return MaxCell
	}
	if c > -MaxCell {
		return int64(c)
	}
	return -MaxCell
}

// WidestAxes returns r's axes ordered by decreasing extent (Max-Min),
// ties in axis order. Grids that split only a few axes split these
// first: the wider an axis, the more cells it separates points into.
func (r Rect) WidestAxes() []int {
	order := make([]int, len(r.Min))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.Max[order[a]]-r.Min[order[a]] > r.Max[order[b]]-r.Min[order[b]]
	})
	return order
}
