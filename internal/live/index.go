package live

import (
	"sparkdbscan/internal/kdtree"
)

// DeltaIndex is the third implementation of the kdtree.Index contract
// (after *kdtree.Tree and *kdtree.BruteForce): one epoch's overlay —
// the points inserted since the last reconcile, minus tombstones —
// searched through the base's overlay grid. Its index space is the
// model's *global* space (base.n + overlay slot), so results compose
// directly with base-tree results in one neighbour list; overlay hits
// come back in ascending index. Obtain one from Guard.Delta; it
// answers from that Guard's epoch for as long as it is held.
//
// The grid is an eps-side hash of cells over a few axes, not a second
// tree: a query visits only the buckets of the cells its eps-box
// touches (any eps, not just the model's), and the writer extends the
// buckets in place — append-only, so readers on older epochs stay
// wait-free and publish copies nothing.
type DeltaIndex struct {
	v *view
}

var _ kdtree.Index = (*DeltaIndex)(nil)

// Size returns the number of overlay slots (including tombstoned ones).
func (d *DeltaIndex) Size() int { return d.v.extraN }

// Radius implements kdtree.Index.
func (d *DeltaIndex) Radius(q []float64, eps float64, out []int32, stats *kdtree.SearchStats) []int32 {
	return d.RadiusLimit(q, eps, -1, out, stats)
}

// RadiusLimit implements kdtree.Index.
func (d *DeltaIndex) RadiusLimit(q []float64, eps float64, max int, out []int32, stats *kdtree.SearchStats) []int32 {
	v := d.v
	return v.base.grid.search(q, eps, max, v.extra, v.extraN, v.tombAt, out, stats)
}
