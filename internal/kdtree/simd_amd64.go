//go:build amd64

package kdtree

import "sparkdbscan/internal/geom"

// leafSqDistsAVX2 is implemented in simd_amd64.s. noescape keeps the
// caller's stack-resident query, result and mask buffers off the heap —
// the kernel only reads q/p and writes out[0:cnt] and mask[0:cnt/8].
//
//go:noescape
func leafSqDistsAVX2(q, p, out *float32, mask *uint8, stride, cnt, dim int64, sHi float32)

// leafSqDists dispatches the leaf-scan kernel to the AVX2/FMA assembly
// when geom's CPU probe found it. Unlike the portable kernel, the
// assembly may leave out[i] unwritten for points it rejects early, so
// out[i] is only meaningful where the corresponding mask bit is set.
func leafSqDists(q []float32, p []float32, stride, cnt int, out []float32, mask []uint8, sHi float32) {
	if geom.HasAVX2FMA && len(q) > 0 && cnt > 0 {
		leafSqDistsAVX2(&q[0], &p[0], &out[0], &mask[0], int64(stride), int64(cnt), int64(len(q)), sHi)
		return
	}
	leafSqDistsGo(q, p, stride, cnt, out, mask, sHi)
}
