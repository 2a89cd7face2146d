package geom

import (
	"math"
	"testing"

	"sparkdbscan/internal/rng"
)

// filteredBatch is the signature shared by SqDistsFiltered and the two
// paths behind it.
type filteredBatch func(q []float64, rows [][]float64, limit float64, out []float64, ok []bool)

// sqDistsFilteredAsm runs every group of four through the assembly
// kernel, bypassing SqDistsFiltered's CPU dispatch (d >= 16 only).
func sqDistsFilteredAsm(q []float64, rows [][]float64, limit float64, out []float64, ok []bool) {
	for lo := 0; lo < len(rows); lo += 4 {
		hi := min(lo+4, len(rows))
		sqDists4(q, rows[lo:hi], limit, out[lo:hi], ok[lo:hi])
	}
}

// checkBatchAgainst offers random row groups to got and compares every
// (out, ok) with want bit for bit. Each trial draws a query and 1–9
// rows at one magnitude between 1e-6 and 1e6: fresh rows, rows near the
// query (so fractional limits cut at varying checkpoints), duplicates
// of an earlier row and the query itself. Limits are 0, fractions of
// one row's true distance, that distance exactly, +Inf and NaN.
func checkBatchAgainst(t *testing.T, got, want filteredBatch, trials int) {
	t.Helper()
	r := rng.New(20)
	for _, dim := range []int{16, 17, 19, 20, 31, 33, 64, 127, 128, 129, 300} {
		for trial := 0; trial < trials; trial++ {
			scale := math.Pow(10, float64(r.Intn(13)-6))
			q := make([]float64, dim)
			for j := range q {
				q[j] = (r.Float64()*2 - 1) * scale
			}
			rows := make([][]float64, 1+r.Intn(9))
			for i := range rows {
				switch kind := r.Intn(8); {
				case kind == 0:
					rows[i] = q
				case kind == 1 && i > 0:
					rows[i] = rows[r.Intn(i)]
				default:
					row := make([]float64, dim)
					spread := scale
					if kind < 5 {
						spread *= 0.05
					}
					for j := range row {
						row[j] = q[j] + (r.Float64()*2-1)*spread
					}
					rows[i] = row
				}
			}
			true0 := SqDistD(q, rows[r.Intn(len(rows))])
			for _, limit := range []float64{0, true0 * 0.1, true0 * 0.5, true0 * 0.9, true0, math.Inf(1), math.NaN()} {
				gotD, gotOK := make([]float64, len(rows)), make([]bool, len(rows))
				wantD, wantOK := make([]float64, len(rows)), make([]bool, len(rows))
				got(q, rows, limit, gotD, gotOK)
				want(q, rows, limit, wantD, wantOK)
				for i := range rows {
					if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) || gotOK[i] != wantOK[i] {
						t.Fatalf("dim %d, %d rows, limit %v, row %d: got (%v, %v), want (%v, %v)",
							dim, len(rows), limit, i, gotD[i], gotOK[i], wantD[i], wantOK[i])
					}
				}
			}
		}
	}
}

// SqDistsFiltered's contract: every (out[r], ok[r]) equals
// SqDistDFiltered(q, rows[r], limit) bit for bit, including the partial
// sum an aborted scan returns.
func TestSqDistsFilteredMatchesScalar(t *testing.T) {
	checkBatchAgainst(t, SqDistsFiltered, sqDistsFilteredGo, 300)
}

// The assembly path against the Go fallback directly, so a host with
// AVX2 checks the kernel even where SqDistsFiltered would dispatch
// around it.
func TestSqDistsAsmMatchesGo(t *testing.T) {
	if !HasAVX2FMA {
		t.Skip("no AVX2/FMA: SqDistsFiltered always runs the Go fallback")
	}
	checkBatchAgainst(t, sqDistsFilteredAsm, sqDistsFilteredGo, 300)
}

// A row shorter than the query panics on both paths, as
// SqDistDFiltered does; the kernel never reads past a row's end.
func TestSqDistsFilteredShortRowPanics(t *testing.T) {
	q := make([]float64, 32)
	rows := [][]float64{make([]float64, 32), make([]float64, 31)}
	for name, fn := range map[string]filteredBatch{"entry": SqDistsFiltered, "go": sqDistsFilteredGo} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short row did not panic", name)
				}
			}()
			fn(q, rows, math.Inf(1), make([]float64, 2), make([]bool, 2))
		}()
	}
}
