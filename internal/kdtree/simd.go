package kdtree

import "math"

// stage is one leaf-kernel call's output: the ids of the points that
// pass its filter, left-packed in leaf order, and their float32 squared
// distances at the same positions.
type stage struct {
	ids  [leafChunk]int32
	dist [leafChunk]float32
}

// leafPackGo is the portable leaf kernel, the assembly's bit-for-bit
// twin (simd_amd64.s). For cnt points stored dimension-major with the
// given column stride (coordinate j of local point i at p[j*stride+i])
// it computes each float32 squared distance s to q and packs ids[i] and
// s into st, in point order, for every point with !(sHi < s): at most
// sHi away, or NaN so the caller's exact path decides it. It returns
// the packed count and whether any packed s is uncertain: !(s <= sLo),
// above sLo or NaN.
//
// cnt is a multiple of 8 (leaf blocks are padded). Points run in groups
// of 32 while 32 remain, then of 8; a 32-group whose partial sums all
// exceed sHi after (dim+1)/2 dimensions is dropped there. Pad points
// (+Inf coordinates) reach +Inf and never pass unless q or sHi is
// non-finite. The accumulation error of the sums is covered by the r·s
// term in Tree.epsBand.
func leafPackGo(q, p []float32, stride int, ids []int32, cnt int, st *stage, sLo, sHi float32) (n int, unsure bool) {
	half := (len(q) + 1) / 2
	var acc [32]float32
	w := 8
group:
	for i := 0; i < cnt; i += w {
		w = 8
		if i+32 <= cnt {
			w = 32
		}
		a := acc[:w]
		clear(a)
		for j, qj := range q {
			if j == half && w == 32 && allAbove(a, sHi) {
				continue group
			}
			for k, pv := range p[j*stride+i : j*stride+i+w] {
				d := qj - pv
				a[k] = fma32(d, d, a[k])
			}
		}
		for k, s := range a {
			if !(sHi < s) {
				st.ids[n], st.dist[n] = ids[i+k], s
				n++
				unsure = unsure || !(s <= sLo)
			}
		}
	}
	return n, unsure
}

// allAbove reports whether every sum exceeds sHi (a NaN does not).
func allAbove(a []float32, sHi float32) bool {
	for _, s := range a {
		if !(sHi < s) {
			return false
		}
	}
	return true
}

// fma32 returns x*y+z rounded once to float32, as VFMADD231PS computes
// it. The float64 product of two float32s is exact; the float64 sum is
// rounded to odd (an inexact result with an even last bit moves one ulp
// towards the exact value), which makes the final narrowing round as if
// from the exact value (Boldo and Melquiond, 2008).
func fma32(x, y, z float32) float32 {
	p, c := float64(x)*float64(y), float64(z)
	s := p + c
	// TwoSum: p + c == s + e exactly (e is NaN for infinite s).
	pp := s - c
	e := (p - pp) + (c - (s - pp))
	if b := math.Float64bits(s); b&1 == 0 && (e > 0 || e < 0) {
		if (e > 0) == (s > 0) {
			b++
		} else {
			b--
		}
		s = math.Float64frombits(b)
	}
	return float32(s)
}
