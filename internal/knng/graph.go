// Package knng is the high-dimensional mode of this repository: DBSCAN
// recovered from a k-nearest-neighbour graph instead of eps-radius
// queries (KNN-DBSCAN, arXiv:2009.04552). Every workload the paper
// measures is d=10, where the packed kd-tree wins; embedding workloads
// (d=128+) make exact radius search collapse to brute force, so this
// package replaces the spatial index with a kNN graph — an exact
// blocked brute-force builder and an approximate NN-descent builder —
// and derives core/border/noise plus the cluster components from the
// graph alone, clustering through internal/dsu exactly like the driver
// merge (arXiv:1912.06255 composes the same way).
//
// Everything here is deterministic: neighbour lists are sorted by
// (distance, index), the approximate builder draws every sample through
// rng.Hash64 on a caller seed, and DBSCAN's labels are pinned
// byte-identical across runs and DSU worker counts.
package knng

import (
	"fmt"
	"math"

	"sparkdbscan/internal/geom"
)

// Graph is a k-nearest-neighbour graph over a dataset: point i's K
// nearest other points (self excluded) live at Idx[i*K:(i+1)*K] in
// ascending (distance, index) order, with the matching Euclidean
// distances in Dist. An approximate graph has the same shape; its lists
// may miss true neighbours, but every (Idx, Dist) entry is a real point
// at its real distance — approximation never fabricates an edge.
type Graph struct {
	K    int
	Idx  []int32
	Dist []float64
}

// Len returns the number of points in the graph.
func (g *Graph) Len() int {
	if g.K == 0 {
		return 0
	}
	return len(g.Idx) / g.K
}

// Neighbors returns point i's neighbour indices, nearest first.
func (g *Graph) Neighbors(i int32) []int32 {
	base := int(i) * g.K
	return g.Idx[base : base+g.K : base+g.K]
}

// Dists returns the distances matching Neighbors(i).
func (g *Graph) Dists(i int32) []float64 {
	base := int(i) * g.K
	return g.Dist[base : base+g.K : base+g.K]
}

// KDist returns point i's k-distance: the distance to its K-th nearest
// neighbour. It is the quantity DBSCAN's core rule thresholds.
func (g *Graph) KDist(i int32) float64 { return g.Dist[(int(i)+1)*g.K-1] }

// Prefix returns the sub-graph keeping only each point's first k
// neighbours. An exact graph's prefix is the exact graph at the smaller
// k (lists are sorted), which lets one k-max build serve every smaller
// k in benchmarks.
func (g *Graph) Prefix(k int) (*Graph, error) {
	if k <= 0 || k > g.K {
		return nil, fmt.Errorf("knng: Prefix k=%d out of range (graph has k=%d)", k, g.K)
	}
	if k == g.K {
		return g, nil
	}
	n := g.Len()
	out := &Graph{K: k, Idx: make([]int32, n*k), Dist: make([]float64, n*k)}
	for i := 0; i < n; i++ {
		copy(out.Idx[i*k:(i+1)*k], g.Idx[i*g.K:i*g.K+k])
		copy(out.Dist[i*k:(i+1)*k], g.Dist[i*g.K:i*g.K+k])
	}
	return out, nil
}

// validateBuild checks the (dataset, k) combination shared by both
// builders: every point needs k distinct other points, and every
// coordinate must be finite — a NaN distance orders neither before nor
// after anything, so it would break the ascending, measured lists a
// Graph promises.
func validateBuild(ds *geom.Dataset, k int) error {
	if k <= 0 {
		return fmt.Errorf("knng: k must be positive, got %d", k)
	}
	n := ds.Len()
	if k >= n {
		return fmt.Errorf("knng: k=%d needs at least k+1 points, dataset has %d", k, n)
	}
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return fmt.Errorf("knng: %w", err)
	}
	return nil
}

// heapList is a bounded worst-first neighbour list: a binary max-heap
// on (squared distance, index) so the current worst candidate is O(1)
// to inspect and replace. Ordering ties on the index to keep every
// build deterministic.
type heapList struct {
	idx []int32
	d2  []float64
}

// worse reports whether entry a orders after entry b (farther, or equal
// distance with a higher index).
func (h *heapList) worse(a, b int) bool {
	if h.d2[a] != h.d2[b] {
		return h.d2[a] > h.d2[b]
	}
	return h.idx[a] > h.idx[b]
}

func (h *heapList) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.d2[a], h.d2[b] = h.d2[b], h.d2[a]
}

func (h *heapList) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.idx) && h.worse(l, m) {
			m = l
		}
		if r < len(h.idx) && h.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// push offers (j, d2) to a full heap, replacing the root if the offer
// is better. It reports whether the list changed.
func (h *heapList) push(j int32, d2 float64) bool {
	if d2 > h.d2[0] || (d2 == h.d2[0] && j >= h.idx[0]) {
		return false
	}
	h.idx[0], h.d2[0] = j, d2
	h.siftDown(0)
	return true
}

// heapify establishes the heap order over arbitrarily-filled entries.
func (h *heapList) heapify() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// contains reports whether j is in the list (linear scan; lists are
// heap-ordered, not index-sorted).
func (h *heapList) contains(j int32) bool {
	for _, x := range h.idx {
		if x == j {
			return true
		}
	}
	return false
}

// extract writes the heap's entries into idx/dist in ascending
// (distance, index) order, converting squared distances to Euclidean.
func (h *heapList) extract(idx []int32, dist []float64) {
	// Heap-sort in place: repeatedly swap the worst to the back.
	for end := len(h.idx) - 1; end > 0; end-- {
		h.swap(0, end)
		tail := heapList{idx: h.idx[:end], d2: h.d2[:end]}
		tail.siftDown(0)
	}
	for i := range h.idx {
		idx[i] = h.idx[i]
		dist[i] = math.Sqrt(h.d2[i])
	}
}
