//go:build !amd64

package geom

// HasAVX2FMA is false off amd64: SqDistsFiltered runs the scalar
// reference and the kd-tree its portable leaf kernel.
const HasAVX2FMA = false

// sqDist4AVX2 exists only so the portable dispatch compiles; with
// HasAVX2FMA constant false it is never called.
func sqDist4AVX2(q, r0, r1, r2, r3 *float64, dim int64, limit float64, acc *[16]float64, part *[4]float64) (done uint64) {
	panic("geom: AVX2 kernel called without AVX2")
}
