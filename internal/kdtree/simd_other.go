//go:build !amd64

package kdtree

// leafPack dispatches the leaf kernel; without amd64 vector support it
// is always the portable implementation.
func leafPack(q, p []float32, stride int, ids []int32, cnt int, st *stage, sLo, sHi float32) (int, bool) {
	return leafPackGo(q, p, stride, ids, cnt, st, sLo, sHi)
}
