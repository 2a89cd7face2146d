//go:build amd64

package kdtree

import "sparkdbscan/internal/geom"

// leafPackAVX2 is implemented in simd_amd64.s. noescape keeps the
// caller's stack-resident query and stage off the heap: the kernel only
// reads q, p, ids and perm and writes st.
//
//go:noescape
func leafPackAVX2(q, p *float32, ids *int32, st *stage, perm *[256][8]int32, stride, cnt, dim int64, sLo, sHi float32) (n int64, unsure bool)

// packPerm[b] lists the lanes set in the 8-bit mask b in ascending
// order, padded with lane 0: the VPERMD indices that left-pack them.
var packPerm = func() (t [256][8]int32) {
	for b := range t {
		k := 0
		for lane := range 8 {
			if b>>lane&1 != 0 {
				t[b][k] = int32(lane)
				k++
			}
		}
	}
	return t
}()

// leafPack dispatches the leaf kernel (see leafPackGo) to the AVX2/FMA
// assembly when geom's CPU probe found it.
func leafPack(q, p []float32, stride int, ids []int32, cnt int, st *stage, sLo, sHi float32) (int, bool) {
	if geom.HasAVX2FMA && len(q) > 0 {
		// The kernel reads these extents unchecked.
		_, _ = ids[cnt-1], p[(len(q)-1)*stride+cnt-1]
		n, unsure := leafPackAVX2(&q[0], &p[0], &ids[0], st, &packPerm, int64(stride), int64(cnt), int64(len(q)), sLo, sHi)
		return int(n), unsure
	}
	return leafPackGo(q, p, stride, ids, cnt, st, sLo, sHi)
}
