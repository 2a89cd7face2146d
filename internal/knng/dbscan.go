package knng

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/par"
)

// EdgeRule selects which graph edges connect two core points.
type EdgeRule int

const (
	// EdgeOneSided unions cores i and j when j appears in i's list
	// within eps. Every listed distance is exact, so even on an
	// approximate graph a one-sided edge is a true eps-edge; this is
	// the default (maximum recall at zero extra cost).
	EdgeOneSided EdgeRule = iota
	// EdgeMutual additionally requires i in j's list. It is the
	// conservative variant from the KNN-DBSCAN literature: on very
	// skewed graphs it resists chaining through hub points, at the
	// price of dropping some true eps-edges.
	EdgeMutual
)

func (e EdgeRule) String() string {
	switch e {
	case EdgeOneSided:
		return "one-sided"
	case EdgeMutual:
		return "mutual"
	default:
		return fmt.Sprintf("EdgeRule(%d)", int(e))
	}
}

// Options tunes DBSCAN beyond the two standard parameters.
type Options struct {
	// Workers is the goroutine count for the core test, the
	// dsu.Concurrent union pass and border assignment (<= 0: all host
	// cores, par.Workers). Labels are pinned byte-identical across
	// every worker count.
	Workers int
	// Edges selects the core-core edge rule (default EdgeOneSided).
	Edges EdgeRule
}

// Result is the outcome of a graph-based DBSCAN run.
type Result struct {
	// Labels assigns each point a cluster id in [0, NumClusters) or
	// dbscan.Noise.
	Labels []int32
	// Core marks the points the graph proves core. On an exact graph
	// this is exactly DBSCAN's core set (given k >= minPts-1); on an
	// approximate graph it can only under-report, never over-report.
	Core []bool
	// KDist is each point's distance to its k-th listed neighbour (the
	// k-distance plot used to pick eps, and the per-point density
	// signal the façade exposes).
	KDist       []float64
	NumClusters int
	NumNoise    int
}

// DBSCAN clusters the points of g's dataset from the graph alone:
//
//   - point i is core iff it has >= minPts points within eps counting
//     itself, read off the (minPts-2)-th listed distance — which needs
//     k >= minPts-1, enforced below;
//   - core points i, j are density-connected when the edge rule admits
//     a listed pair within eps; components form via a concurrent
//     union-find (identical labels at any worker count);
//   - a non-core point joins its nearest listed core within eps (tie:
//     lower index), otherwise it is noise.
//
// Cluster ids are assigned in order of first appearance by point
// index, so the labeling is a pure function of (g, p, Edges) — the
// same discipline the distributed merge uses.
func DBSCAN(g *Graph, p dbscan.Params, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.Len()
	if g.K < p.MinPts-1 {
		return nil, fmt.Errorf("knng: k=%d cannot witness minPts=%d (need k >= minPts-1)", g.K, p.MinPts)
	}

	res := &Result{
		Labels: make([]int32, n),
		Core:   make([]bool, n),
		KDist:  make([]float64, n),
	}
	for i := int32(0); i < int32(n); i++ {
		res.KDist[i] = g.KDist(i)
	}

	// Core rule: with self counted, i is core iff its (minPts-1)-th
	// nearest other point is within eps.
	par.For(n, queryBlock, opt.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if p.MinPts <= 1 {
				res.Core[i] = true
				continue
			}
			res.Core[i] = g.Dist[i*g.K+p.MinPts-2] <= p.Eps
		}
	})

	// Union core-core edges, points split into blocks across workers.
	// dsu.Concurrent's quiescent roots are component minima, so the
	// dense relabeling below cannot see the schedule.
	forest := dsu.NewConcurrent(n)
	par.For(n, queryBlock, opt.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			unionEdges(g, res.Core, p, opt.Edges, int32(i), forest.Union)
		}
	})

	// Dense cluster ids in order of first appearance over core points.
	// First appearance is the component's minimum core index, which no
	// DSU schedule can change.
	roots := make(map[int32]int32)
	next := int32(0)
	for i := int32(0); i < int32(n); i++ {
		if !res.Core[i] {
			continue
		}
		r := forest.Find(i)
		if _, ok := roots[r]; !ok {
			roots[r] = next
			next++
		}
		res.Labels[i] = roots[r]
	}
	res.NumClusters = int(next)

	// Borders and noise: nearest listed core within eps wins; lists
	// are (distance, index)-sorted, so the first core hit is the
	// deterministic choice.
	par.For(n, queryBlock, opt.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if res.Core[i] {
				continue
			}
			res.Labels[i] = dbscan.Noise
			nb, nd := g.Neighbors(int32(i)), g.Dists(int32(i))
			for m, j := range nb {
				if nd[m] > p.Eps {
					break
				}
				if res.Core[j] {
					res.Labels[i] = res.Labels[j]
					break
				}
			}
		}
	})
	for _, l := range res.Labels {
		if l == dbscan.Noise {
			res.NumNoise++
		}
	}
	return res, nil
}

// unionEdges feeds i's admissible core-core edges to union.
func unionEdges(g *Graph, core []bool, p dbscan.Params, rule EdgeRule, i int32, union func(a, b int32) bool) {
	if !core[i] {
		return
	}
	nb, nd := g.Neighbors(i), g.Dists(i)
	for m, j := range nb {
		if nd[m] > p.Eps {
			break // lists are sorted; nothing farther qualifies
		}
		if !core[j] {
			continue
		}
		if rule == EdgeMutual && !lists(g, j, i) {
			continue
		}
		union(i, j)
	}
}

// lists reports whether point j's neighbour list contains i.
func lists(g *Graph, j, i int32) bool {
	for _, x := range g.Neighbors(j) {
		if x == i {
			return true
		}
	}
	return false
}
