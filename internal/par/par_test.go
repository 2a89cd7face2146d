package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ in, want int }{{-1, procs}, {0, procs}, {1, 1}, {3, 3}} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestForCoversEachIndexOnce checks every index of [0, n) is handed to
// exactly one call, in blocks of at most grain, with a worker index
// below the resolved worker count, across block counts from zero to
// many and worker settings from the GOMAXPROCS default to more workers
// than blocks.
func TestForCoversEachIndexOnce(t *testing.T) {
	const grain = 7
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 10*grain + 3} {
		for _, workers := range []int{-1, 0, 1, 2, 64} {
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			For(n, grain, workers, func(w, lo, hi int) {
				calls.Add(1)
				if w < 0 || w >= Workers(workers) {
					t.Errorf("n=%d workers=%d: worker index %d", n, workers, w)
				}
				if lo < 0 || hi > n || hi <= lo || hi-lo > grain {
					t.Errorf("n=%d workers=%d: block [%d, %d)", n, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			if n == 0 && calls.Load() != 0 {
				t.Errorf("n=0 workers=%d: fn called %d times", workers, calls.Load())
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, h)
				}
			}
		}
	}
}
