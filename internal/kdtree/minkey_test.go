package kdtree

import (
	"fmt"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
)

// bruteMinKey is MinKey's contract computed from BruteForce's
// neighbour set: the least key in the closed eps-ball and the ball's
// size capped at limit.
func bruteMinKey(bf *BruteForce, keys []int32, q []float64, eps float64, limit int) (int32, int) {
	key := int32(NoKey)
	nbrs := bf.Radius(q, eps, nil, nil)
	for _, p := range nbrs {
		key = min(key, keys[p])
	}
	return key, min(len(nbrs), limit)
}

// TestMinKeyMatchesBruteForce pins MinKey's min/count-with-cap
// contract against brute force on both distance paths (d ≤ 32 float32
// kernel, d > 32 float64 rows), at every property-test leaf size, for
// key arrays with sparse, dense and no finite keys, caps from 0 to
// beyond n, queries on, near and far from the data, and a ball wider
// than the whole dataset.
func TestMinKeyMatchesBruteForce(t *testing.T) {
	identical := geom.NewDataset(300, 3)
	for i := range identical.Coords {
		identical.Coords[i] = 7
	}
	for _, tc := range []struct {
		name string
		ds   *geom.Dataset
		eps  float64
	}{
		{"uniform/d1", randomDataset(1, 500, 1), 0.4},
		{"clustered/d2", clusteredDataset(2, 1500, 2, 6, 4), 6},
		{"clustered/d10", clusteredDataset(3, 3000, 10, 8, 6), 25},
		{"clustered/d33", clusteredDataset(4, 800, 33, 5, 2), 14},
		{"uniform/d64", randomDataset(5, 400, 64), 250},
		{"identical/d3", identical, 1},
		{"cover-all/d2", clusteredDataset(91, 2000, 2, 3, 5), 1e5},
	} {
		n := tc.ds.Len()
		r := rng.New(uint64(n) ^ 0x3e7)
		keySets := map[string][]int32{
			"sparse":   make([]int32, n),
			"distinct": make([]int32, n),
			"none":     make([]int32, n),
		}
		for i := 0; i < n; i++ {
			keySets["sparse"][i] = NoKey
			if r.Intn(3) == 0 {
				keySets["sparse"][i] = int32(r.Intn(10))
			}
			keySets["distinct"][i] = int32(r.Intn(n))
			keySets["none"][i] = NoKey
		}
		bf := NewBruteForce(tc.ds)
		for _, ls := range propLeafSizes {
			tree := BuildLeafSize(tc.ds, ls)
			for ksName, keys := range keySets {
				mins := tree.KeyMins(keys)
				t.Run(fmt.Sprintf("%s/leaf%d/%s", tc.name, ls, ksName), func(t *testing.T) {
					q := make([]float64, tc.ds.Dim)
					for trial := 0; trial < 60; trial++ {
						copy(q, tc.ds.At(int32(r.Intn(n))))
						switch trial % 3 {
						case 1: // near the data
							for j := range q {
								q[j] += (r.Float64() - 0.5) * tc.eps
							}
						case 2: // far outside it
							q[0] += 1e4
						}
						limit := []int{0, 1, 4, 16, n + 1}[trial%5]
						wantKey, wantCount := bruteMinKey(bf, keys, q, tc.eps, limit)
						key, count := tree.MinKey(q, tc.eps, keys, mins, limit, nil)
						if key != wantKey || count != wantCount {
							t.Fatalf("trial %d limit %d: MinKey = (%d, %d), brute force (%d, %d)", trial, limit, key, count, wantKey, wantCount)
						}
					}
				})
			}
		}
	}
}

// TestMinKeyPrunesOnlyOnceCounted pins what the pruning buys and when
// it may start. With a cap no neighbourhood reaches, MinKey visits
// exactly the nodes Radius visits and computes the same distances;
// with minPts-sized caps on clustered data, where each cluster carries
// one key, it skips most of them.
func TestMinKeyPrunesOnlyOnceCounted(t *testing.T) {
	ds := clusteredDataset(21, 20000, 10, 8, 6)
	tree := Build(ds)
	keys := make([]int32, ds.Len())
	for i := range keys {
		keys[i] = int32(i % 8) // clusteredDataset deals points to clusters round-robin
	}
	mins := tree.KeyMins(keys)
	const eps = 25.0
	var full, uncapped, capped SearchStats
	var out []int32
	for qi := int32(0); qi < 500; qi++ {
		q := ds.At(qi * 37)
		out = tree.Radius(q, eps, out[:0], &full)
		tree.MinKey(q, eps, keys, mins, ds.Len(), &uncapped)
		tree.MinKey(q, eps, keys, mins, 4, &capped)
	}
	if uncapped.NodesVisited != full.NodesVisited || uncapped.DistComps != full.DistComps || uncapped.Reported != full.Reported {
		t.Fatalf("uncapped MinKey %+v, Radius %+v: the descent must match until the count is settled", uncapped, full)
	}
	if 2*capped.NodesVisited > full.NodesVisited {
		t.Fatalf("capped MinKey visited %d nodes against Radius's %d: settled nodes are not being skipped", capped.NodesVisited, full.NodesVisited)
	}
}

func TestKeyMinsEmptyTree(t *testing.T) {
	tree := Build(geom.NewDataset(0, 2))
	if mins := tree.KeyMins(nil); len(mins) != 0 {
		t.Fatalf("empty tree has %d node minima", len(mins))
	}
	if key, count := tree.MinKey([]float64{0, 0}, 1, nil, nil, 3, nil); key != NoKey || count != 0 {
		t.Fatalf("empty tree MinKey = (%d, %d), want (NoKey, 0)", key, count)
	}
}
