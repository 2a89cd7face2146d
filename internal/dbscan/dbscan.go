// Package dbscan implements the sequential DBSCAN algorithm of Ester et
// al. (Algorithm 1 in the paper). It is both the correctness reference
// that every parallel run is checked against and the T_s numerator of
// the paper's speedup figures.
package dbscan

import (
	"fmt"
	"math"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise int32 = -1

// Result holds the output of a DBSCAN run.
type Result struct {
	// Labels has one entry per point: a cluster id in [0, NumClusters)
	// or Noise.
	Labels []int32
	// Core marks the core points (|eps-neighbourhood| >= minPts).
	Core []bool
	// NumClusters is the number of clusters found.
	NumClusters int
	// NumNoise is the number of noise points.
	NumNoise int
	// Stats meters the index work the run performed.
	Stats kdtree.SearchStats
}

// Params bundles the two DBSCAN parameters. Eps must be a positive
// finite number: NaN compares false against every distance, so it would
// make every point noise, and +Inf would make the whole dataset one
// neighbourhood, one cluster whatever the data; neither is a radius,
// so Validate rejects both. MinPts must be at least 1.
type Params struct {
	Eps    float64
	MinPts int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
		return fmt.Errorf("dbscan: eps must be a positive finite number, got %g", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: minPts must be >= 1, got %d", p.MinPts)
	}
	return nil
}

// Check returns the error Run gives for p and ds before it reads its
// index, so a caller can reject bad input before building one.
func Check(ds *geom.Dataset, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return fmt.Errorf("dbscan: %w", err)
	}
	return nil
}

// Run executes sequential DBSCAN over all points of ds using idx for
// eps-neighbourhood queries. A point's own index appears in its
// neighbourhood (distance 0), so it counts toward minPts, matching the
// usual convention and the paper's reference implementation (Patwary et
// al.).
func Run(ds *geom.Dataset, idx kdtree.Index, p Params) (*Result, error) {
	if err := Check(ds, p); err != nil {
		return nil, err
	}
	n := ds.Len()
	res := &Result{
		Labels: make([]int32, n),
		Core:   make([]bool, n),
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	visited := make([]bool, n)
	var queue Queue
	var neighbors []int32
	nextCluster := int32(0)

	for i := int32(0); i < int32(n); i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		neighbors = idx.Radius(ds.At(i), p.Eps, neighbors[:0], &res.Stats)
		if len(neighbors) < p.MinPts {
			continue // noise (may later be adopted as a border point)
		}
		c := nextCluster
		nextCluster++
		res.Labels[i] = c
		res.Core[i] = true
		queue.Reset()
		for _, nb := range neighbors {
			queue.Push(nb)
		}
		for !queue.Empty() {
			q := queue.Pop()
			if !visited[q] {
				visited[q] = true
				neighbors = idx.Radius(ds.At(q), p.Eps, neighbors[:0], &res.Stats)
				if len(neighbors) >= p.MinPts {
					res.Core[q] = true
					for _, nb := range neighbors {
						queue.Push(nb)
					}
				}
			}
			if res.Labels[q] == Noise {
				res.Labels[q] = c
			}
		}
	}
	res.NumClusters = int(nextCluster)
	for _, l := range res.Labels {
		if l == Noise {
			res.NumNoise++
		}
	}
	return res, nil
}
