package bench

import "testing"

// TestQuartiles pins the kd-tree bench's spread: linear interpolation
// between order statistics, so one repetition reports itself three
// times and five report their 2nd, 3rd and 4th smallest.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		p25, p50, p75 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{50, 10, 40, 20, 30}, 20, 30, 40},
	} {
		if p25, p50, p75 := quartiles(tc.xs); p25 != tc.p25 || p50 != tc.p50 || p75 != tc.p75 {
			t.Errorf("quartiles = %g, %g, %g; want %g, %g, %g", p25, p50, p75, tc.p25, tc.p50, tc.p75)
		}
	}
}
