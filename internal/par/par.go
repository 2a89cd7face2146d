// Package par is the repository's one host-parallel loop. Every
// data-parallel phase hands its index range to For, so how many
// goroutines run, and what a worker count of zero means, is decided
// here and nowhere else.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: w when positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// For calls fn(w, lo, hi) for consecutive grain-sized blocks [lo, hi)
// covering [0, n) — every index exactly once, the last block possibly
// shorter — and returns when all have run. Blocks are handed out from
// an atomic cursor to min(Workers(workers), ⌈n/grain⌉) goroutines, so
// a slow block never leaves the others idle. w identifies the
// goroutine running the block, 0 <= w < Workers(workers), and is
// stable across its blocks, so callers index per-worker scratch by it.
// One worker (in particular a single block) runs on the caller's
// goroutine. fn is not called when n <= 0; grain < 1 counts as 1.
//
// Which worker runs which block is up to the scheduler: callers whose
// output must not depend on it write only per-index results or combine
// per-worker partials with a commutative, associative reduction.
func For(n, grain, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	workers = min(Workers(workers), (n-1)/grain+1)
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}
