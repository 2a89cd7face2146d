package kdtree

import "sparkdbscan/internal/geom"

// BruteForce is the O(n) per-query linear-scan index. It is the
// reference implementation the tree is property-tested against and the
// "no spatial index" arm of the paper's O(n²)-vs-O(n log n) ablation.
type BruteForce struct {
	ds *geom.Dataset
}

// NewBruteForce returns a linear-scan index over ds.
func NewBruteForce(ds *geom.Dataset) *BruteForce { return &BruteForce{ds: ds} }

var _ Index = (*BruteForce)(nil)

// Radius implements Index.
func (b *BruteForce) Radius(q []float64, eps float64, out []int32, stats *SearchStats) []int32 {
	return b.RadiusLimit(q, eps, -1, out, stats)
}

// RadiusLimit implements Index.
func (b *BruteForce) RadiusLimit(q []float64, eps float64, max int, out []int32, stats *SearchStats) []int32 {
	if max == 0 {
		return out
	}
	eps2 := eps * eps
	n := int32(b.ds.Len())
	var local SearchStats
	before := len(out)
	for i := int32(0); i < n; i++ {
		local.DistComps++
		if geom.SqDistD(q, b.ds.At(i)) <= eps2 {
			out = append(out, i)
			if max > 0 && len(out)-before >= max {
				break
			}
		}
	}
	local.Reported = int64(len(out) - before)
	if stats != nil {
		stats.Add(local)
	}
	return out
}
