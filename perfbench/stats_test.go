package main

import (
	"testing"
	"time"
)

func TestHighestPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50},
		{99, 50}, {100, 90},
		{999, 90}, {1000, 99},
		{9999, 99}, {10_000, 99.9},
		{99_999, 99.9}, {100_000, 99.99}, {10_000_000, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- {
		l = append(l, time.Duration(i)*time.Microsecond)
	}
	s := l.sorted()
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Microsecond}, {99, 99 * time.Microsecond}, {100, 100 * time.Microsecond}, {0.1, time.Microsecond}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestQuantileRefusesUnsupportedPercentile(t *testing.T) {
	l := make(latencies, 999)
	if _, err := l.quantileUS(99); err == nil {
		t.Fatal("p99 of 999 samples leaves fewer than 10 beyond it; want an error")
	}
	l = append(l, time.Millisecond)
	v, err := l.quantileUS(99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 0 {
		t.Errorf("p99 = %gus, want 0 (990 of 1000 samples are zero)", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
