//go:build amd64

package geom

// HasAVX2FMA reports whether the vector kernels can run: AVX2 and FMA3
// in hardware plus OS-enabled YMM state. Probed once at init; the
// kd-tree's float32 leaf kernel and the four-row distance kernel below
// both dispatch on it.
var HasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c&fmaBit == 0 || c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state saved by the OS
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// cpuidex and xgetbv0 are implemented in simd_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// sqDist4AVX2 is implemented in simd_amd64.s: the four-row kernel
// behind sqDists4. It reads dimensions [0, dim&^3) of q and of the four
// rows, writes each row's four lane accumulators to acc[4r:4r+4], and
// returns a bit mask of the rows whose sum at a 16-dimension checkpoint
// exceeded limit, with that first exceeding sum in part[r].
//
//go:noescape
func sqDist4AVX2(q, r0, r1, r2, r3 *float64, dim int64, limit float64, acc *[16]float64, part *[4]float64) (done uint64)
