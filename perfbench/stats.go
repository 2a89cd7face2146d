package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// tailPercentiles is the ladder the percentile rule picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond samples
// beyond percentile p.
func supports(n int, p float64) bool {
	// Rounded so that 99.9% of 10,000 leaves exactly 10, not 9.99….
	beyond := math.Round(float64(n)*(100-p)/100*1e6) / 1e6
	return beyond >= minBeyond
}

// highestPercentile returns the highest percentile of the ladder that
// has at least minBeyond samples beyond it, or 0 when even the median
// has fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// latencies is one distribution of per-operation times.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileUS returns percentile p in microseconds, or an error when the
// sample is too small for the percentile rule to allow p.
func (l latencies) quantileUS(p float64) (float64, error) {
	if !supports(len(l), p) {
		return 0, fmt.Errorf("p%g needs more than %d samples", p, len(l))
	}
	return us(percentile(l.sorted(), p)), nil
}

// summary describes the distribution by its median and the highest
// percentile the sample supports, with the sample count.
func (l latencies) summary() string {
	s := l.sorted()
	hp := highestPercentile(len(s))
	if hp == 0 {
		return fmt.Sprintf("n=%d (too few samples)", len(s))
	}
	out := fmt.Sprintf("n=%d p50=%.1fus", len(s), us(percentile(s, 50)))
	if hp > 99 {
		out += fmt.Sprintf(" p99=%.1fus", us(percentile(s, 99)))
	}
	return out + fmt.Sprintf(" p%g=%.1fus", hp, us(percentile(s, hp)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fmtSeconds lists xs in seconds, in the order measured.
func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
