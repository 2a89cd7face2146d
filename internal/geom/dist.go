package geom

// Unrolled squared-distance kernels. The paper's datasets are d=10
// (Table I) and the 2/3-D cases cover the geospatial example and most
// synthetic tests, so those three get fully unrolled bodies; everything
// else goes through a 4-wide unrolled loop. SqDistD dispatches once per
// call, which the compiler turns into a jump table — measurably cheaper
// than the range loop in SqDist for the hot d=10 leaf scans.

// SqDist2 returns the squared Euclidean distance for d=2 vectors.
func SqDist2(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	return d0*d0 + d1*d1
}

// SqDist3 returns the squared Euclidean distance for d=3 vectors.
func SqDist3(a, b []float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	return d0*d0 + d1*d1 + d2*d2
}

// SqDist10 returns the squared Euclidean distance for d=10 vectors, the
// dimensionality of every Table I dataset.
func SqDist10(a, b []float64) float64 {
	_ = a[9]
	_ = b[9]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	d4 := a[4] - b[4]
	d5 := a[5] - b[5]
	d6 := a[6] - b[6]
	d7 := a[7] - b[7]
	d8 := a[8] - b[8]
	d9 := a[9] - b[9]
	return d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 +
		d5*d5 + d6*d6 + d7*d7 + d8*d8 + d9*d9
}

// SqDistD returns the squared Euclidean distance between a and b,
// dispatching to an unrolled kernel when one exists for len(a).
func SqDistD(a, b []float64) float64 {
	switch len(a) {
	case 2:
		return SqDist2(a, b)
	case 3:
		return SqDist3(a, b)
	case 10:
		return SqDist10(a, b)
	default:
		return sqDistUnrolled(a, b)
	}
}

// sqDistUnrolled is the generic 4-wide unrolled kernel. The float64
// conversions round every product before it is added, so no compiler
// target fuses the two into an FMA: SqDistDFiltered and the four-row
// vector kernel reproduce these bits only because all three round the
// same way.
func sqDistUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float64(d * d)
	}
	return s0 + s1 + s2 + s3
}

// SqDistDFiltered computes SqDistD(a, b) with an early exit: at every
// 16-dimension checkpoint the partial sum is tested against limit, and
// once it exceeds limit the scan aborts, returning (partial, false).
// A completed scan returns (d2, true) where d2 is BIT-IDENTICAL to
// SqDistD(a, b) — the accumulator pattern is exactly sqDistUnrolled's,
// and the checkpoint only reads the accumulators — so callers can use
// the completed value directly where canonical distances are required
// (deterministic graph builds) without a second full pass. Dimensions
// with a dedicated kernel (2, 3, 10) and anything below one checkpoint
// stride just compute fully.
func SqDistDFiltered(a, b []float64, limit float64) (float64, bool) {
	if len(a) < 16 {
		d2 := SqDistD(a, b)
		return d2, d2 <= limit
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for j := i; j < i+16; j += 4 {
			d0 := a[j] - b[j]
			d1 := a[j+1] - b[j+1]
			d2 := a[j+2] - b[j+2]
			d3 := a[j+3] - b[j+3]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		if s := s0 + s1 + s2 + s3; s > limit {
			return s, false
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float64(d * d)
	}
	return s0 + s1 + s2 + s3, true
}

// SqDistsFiltered sets (out[r], ok[r]) to SqDistDFiltered(q, rows[r],
// limit) for every row, bit for bit, so a caller can batch an
// early-exit scan without changing any result. out and ok must hold
// len(rows) entries.
//
// With AVX2 and d >= 16 the rows go through sqDists4, four at a time.
// Otherwise, and always off amd64, this is a loop over SqDistDFiltered,
// which stays the reference both paths are tested against.
func SqDistsFiltered(q []float64, rows [][]float64, limit float64, out []float64, ok []bool) {
	out, ok = out[:len(rows)], ok[:len(rows)]
	if !HasAVX2FMA || len(q) < 16 {
		sqDistsFilteredGo(q, rows, limit, out, ok)
		return
	}
	for lo := 0; lo < len(rows); lo += 4 {
		hi := min(lo+4, len(rows))
		sqDists4(q, rows[lo:hi], limit, out[lo:hi], ok[lo:hi])
	}
}

func sqDistsFilteredGo(q []float64, rows [][]float64, limit float64, out []float64, ok []bool) {
	for r, row := range rows {
		out[r], ok[r] = SqDistDFiltered(q, row, limit)
	}
}

// sqDists4 runs the assembly kernel on 1–4 rows (len(q) >= 16). A short
// group is padded with rows[0], whose results are dropped; the pad
// exceeds the limit exactly when rows[0] does, so it never delays the
// kernel's all-rows-exceeded exit. The kernel covers the whole
// 4-dimension blocks, checkpoints included; the < 4-dimension tail and
// the final ((s0+s1)+s2)+s3 run here, as in SqDistDFiltered.
func sqDists4(q []float64, rows [][]float64, limit float64, out []float64, ok []bool) {
	d := len(q)
	var p [4]*float64
	for r := range p {
		row := rows[0]
		if r < len(rows) {
			row = rows[r]
		}
		_ = row[d-1] // the kernel reads d values: a short row panics like SqDistDFiltered
		p[r] = &row[0]
	}
	var acc [16]float64
	var part [4]float64
	done := sqDist4AVX2(&q[0], p[0], p[1], p[2], p[3], int64(d), limit, &acc, &part)
	for r, row := range rows {
		if done&(1<<r) != 0 {
			out[r], ok[r] = part[r], false
			continue
		}
		s0, s1, s2, s3 := acc[4*r], acc[4*r+1], acc[4*r+2], acc[4*r+3]
		for i := d &^ 3; i < d; i++ {
			x := q[i] - row[i]
			s0 += float64(x * x)
		}
		out[r], ok[r] = s0+s1+s2+s3, true
	}
}
