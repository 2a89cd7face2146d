// Package geom holds the point/dataset representation shared by every
// other package: a flat, cache-friendly coordinate array with a fixed
// dimension, plus distance primitives and axis-aligned bounding boxes.
//
// Points are identified by their index (int32) in the dataset. The
// paper's SEED mechanism is entirely index-based ("if the current
// point's index is beyond the range of the current partition it is
// taken as a SEED"), so indices — not coordinates — are the identity of
// a point throughout this repository.
package geom

import (
	"fmt"
	"math"
)

// Dataset is an immutable collection of n points in d dimensions stored
// as one flat slice, row-major: point i occupies Coords[i*Dim:(i+1)*Dim].
type Dataset struct {
	// Dim is the number of coordinates per point (d in the paper;
	// always 10 for the Table I datasets).
	Dim int
	// Coords holds n*Dim values.
	Coords []float64
	// Label optionally carries the generator's ground-truth cluster id
	// per point (-1 for planted noise). It is nil for datasets loaded
	// without labels and is never consulted by the clustering code —
	// only by evaluation.
	Label []int32
	// Name is a human-readable tag ("r100k") used in reports.
	Name string
}

// NewDataset allocates an empty dataset of n points in dim dimensions.
func NewDataset(n, dim int) *Dataset {
	return &Dataset{Dim: dim, Coords: make([]float64, n*dim)}
}

// Len returns the number of points.
func (d *Dataset) Len() int {
	if d.Dim == 0 {
		return 0
	}
	return len(d.Coords) / d.Dim
}

// At returns point i's coordinates as a view into the underlying array.
// The caller must not modify the result.
func (d *Dataset) At(i int32) []float64 {
	base := int(i) * d.Dim
	return d.Coords[base : base+d.Dim : base+d.Dim]
}

// Set copies coords into point i's slot.
func (d *Dataset) Set(i int32, coords []float64) {
	if len(coords) != d.Dim {
		panic(fmt.Sprintf("geom: Set dim mismatch: got %d want %d", len(coords), d.Dim))
	}
	copy(d.Coords[int(i)*d.Dim:], coords)
}

// Slice returns a dataset view containing points [lo, hi) of d. The
// returned dataset shares storage with d.
func (d *Dataset) Slice(lo, hi int32) *Dataset {
	s := &Dataset{
		Dim:    d.Dim,
		Coords: d.Coords[int(lo)*d.Dim : int(hi)*d.Dim],
		Name:   d.Name,
	}
	if d.Label != nil {
		s.Label = d.Label[lo:hi]
	}
	return s
}

// Bounds returns the axis-aligned bounding box of all points. It panics
// on an empty dataset.
func (d *Dataset) Bounds() Rect {
	n := d.Len()
	if n == 0 {
		panic("geom: Bounds of empty dataset")
	}
	r := Rect{Min: make([]float64, d.Dim), Max: make([]float64, d.Dim)}
	copy(r.Min, d.At(0))
	copy(r.Max, d.At(0))
	for i := int32(1); i < int32(n); i++ {
		p := d.At(i)
		for j, v := range p {
			if v < r.Min[j] {
				r.Min[j] = v
			}
			if v > r.Max[j] {
				r.Max[j] = v
			}
		}
	}
	return r
}

// SizeBytes reports the in-memory size of the coordinate payload. The
// cost model uses it to charge broadcast and HDFS-read time.
func (d *Dataset) SizeBytes() int64 {
	return int64(len(d.Coords)) * 8
}

// SqDist returns the squared Euclidean distance between two coordinate
// vectors of equal length. Working in squared space avoids a sqrt per
// candidate in range queries.
func SqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		diff := av - b[i]
		s += diff * diff
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Rect is an axis-aligned box: a dataset's Bounds, or a grid
// partition's envelope.
type Rect struct {
	Min, Max []float64
}
