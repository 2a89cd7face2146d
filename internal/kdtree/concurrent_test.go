package kdtree

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentQueriesRaceFree pins the "immutable after Build and
// safe for concurrent queries" contract the online serving layer is
// built on: many goroutines hammer one shared tree with every query
// entry while the race detector watches, and each goroutine checks its
// answers against a single-threaded reference so a data race that
// corrupts results (not just one the detector flags) also fails.
func TestConcurrentQueriesRaceFree(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		ds := clusteredDataset(7, 3000, 4, 6, 10)
		const eps = 12.0
		idx := Build(ds)
		// Single-threaded reference answers.
		queries := 64
		wantRadius := make([][]int32, queries)
		for qi := 0; qi < queries; qi++ {
			q := ds.At(int32(qi * 17 % ds.Len()))
			wantRadius[qi] = sortedCopy(idx.Radius(q, eps, nil, nil))
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var out []int32
				var stats SearchStats
				for rep := 0; rep < 30; rep++ {
					qi := (g*31 + rep) % queries
					q := ds.At(int32(qi * 17 % ds.Len()))
					out = idx.Radius(q, eps, out[:0], &stats)
					if !reflect.DeepEqual(sortedCopy(out), wantRadius[qi]) {
						t.Errorf("goroutine %d: Radius(query %d) diverged under concurrency", g, qi)
						return
					}
					if lim := idx.RadiusLimit(q, eps, 8, nil, &stats); len(lim) > 8 {
						t.Errorf("goroutine %d: RadiusLimit returned %d > 8", g, len(lim))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
