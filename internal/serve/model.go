// Package serve is the online model-serving subsystem: it freezes a
// finished clustering into an immutable snapshot and answers "which
// cluster would this point join?" queries on real goroutines and the
// wall clock — unlike everything under internal/core, internal/spark
// and internal/vcluster, which runs offline on the simulated clock.
//
// The design mirrors the paper's share-nothing replication. The paper
// broadcasts the whole dataset plus its kd-tree to every executor so
// eps-queries never cross the network; a serving replica is exactly
// that broadcast made long-lived. Freeze produces the in-memory
// analogue of the broadcast variable: dataset, packed kd-tree, final
// labels, core-point bitset and the eps/minPts parameters, all
// immutable and therefore safe for unlimited concurrent readers.
//
// On top of the snapshot, Server runs a sharded worker pool with
// adaptive micro-batching (queued queries are coalesced into one
// kd-tree traversal batch per wakeup, amortizing setup and cache
// warmth — the same lever the GPU tree-traversal literature pulls), a
// bounded admission queue with deadline-based load shedding, per-
// request context cancellation, and zero-downtime model hot-swap via
// an atomic pointer with a generation counter surfaced in responses.
//
// The offline clustering path never imports this package; the
// dependency points one way (serve → dbscan/kdtree/geom), so serving
// can never perturb offline results.
package serve

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
)

// Noise is returned by Assign for points that would join no cluster.
const Noise = dbscan.Noise

// Model is an immutable serving snapshot of one finished clustering:
// the dataset, its packed kd-tree, per-point labels, the core-point
// bitset, and the DBSCAN parameters the labels were produced with.
// All fields are private and never written after Freeze, so any number
// of goroutines may query a Model concurrently with no locking.
type Model struct {
	ds     *geom.Dataset
	tree   *kdtree.Tree
	labels []int32
	core   []uint64 // bitset, bit i = point i is a core point
	eps    float64
	minPts int

	numClusters int
	numCore     int
}

// Freeze snapshots a clustering into a servable Model. labels must
// hold one entry per dataset point (cluster id or dbscan.Noise).
//
// core marks the core points; pass nil to have Freeze derive the
// bitset from the tree (one RadiusCount per point — the core property
// is |eps-neighbourhood| >= minPts, independent of labels), which is
// what distributed runs do since the driver-side merge only keeps
// labels. tree may be nil, in which case Freeze builds one.
//
// The labels (and core flags, when given) are copied; the dataset and
// tree are shared with the caller and must not be mutated afterwards —
// the same contract kdtree.Build already imposes.
func Freeze(ds *geom.Dataset, labels []int32, core []bool, tree *kdtree.Tree, p dbscan.Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := ds.Len()
	if len(labels) != n {
		return nil, fmt.Errorf("serve: %d labels for %d points", len(labels), n)
	}
	if core != nil && len(core) != n {
		return nil, fmt.Errorf("serve: %d core flags for %d points", len(core), n)
	}
	for i := int32(0); i < int32(n); i++ {
		if err := geom.CheckFinite(ds.At(i)); err != nil {
			return nil, fmt.Errorf("serve: point %d: %w", i, err)
		}
	}
	if tree == nil {
		tree = kdtree.Build(ds)
	} else if tree.Size() != n {
		return nil, fmt.Errorf("serve: tree over %d points, dataset has %d", tree.Size(), n)
	}
	m := &Model{
		ds:     ds,
		tree:   tree,
		labels: append([]int32(nil), labels...),
		core:   make([]uint64, (n+63)/64),
		eps:    p.Eps,
		minPts: p.MinPts,
	}
	for _, l := range labels {
		if int(l) >= m.numClusters {
			m.numClusters = int(l) + 1
		}
	}
	if core != nil {
		for i, c := range core {
			if c {
				m.core[i/64] |= 1 << (i % 64)
				m.numCore++
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if tree.RadiusCount(ds.At(int32(i)), p.Eps, nil) >= p.MinPts {
				m.core[i/64] |= 1 << (i % 64)
				m.numCore++
			}
		}
	}
	return m, nil
}

// isCore reports whether point i is a core point.
func (m *Model) isCore(i int32) bool {
	return m.core[i/64]&(1<<(uint(i)%64)) != 0
}

// NumPoints returns the snapshot's dataset size.
func (m *Model) NumPoints() int { return m.ds.Len() }

// NumClusters returns the number of clusters in the snapshot.
func (m *Model) NumClusters() int { return m.numClusters }

// NumCore returns the number of core points in the snapshot.
func (m *Model) NumCore() int { return m.numCore }

// Params returns the DBSCAN parameters the snapshot was frozen with.
func (m *Model) Params() dbscan.Params {
	return dbscan.Params{Eps: m.eps, MinPts: m.minPts}
}

// Assignment is one query's answer.
type Assignment struct {
	// Cluster is the id the queried point would join, or Noise.
	// DBSCAN assigns a new point to a cluster exactly when it lies
	// within eps of one of the cluster's core points; ties between
	// clusters (a border point in reach of core points from several)
	// break deterministically to the lowest cluster id.
	Cluster int32
	// Core reports whether the point would itself be a core point if
	// inserted: |eps-neighbourhood ∪ {itself}| >= minPts. A Core
	// response with Cluster == Noise means the point would found a new
	// cluster — density the frozen model has no id for.
	Core bool
	// Generation identifies the model snapshot that served the answer;
	// it increases by one per hot-swap. Zero means the Model was
	// queried directly rather than through a Server.
	Generation uint64
	// Hedged reports that the answer came from a hedged re-dispatch
	// rather than the primary one (always false without hedging).
	Hedged bool
	// Epoch identifies the mutable-model epoch that served the answer.
	// Frozen Models always report 0; live models (internal/live) stamp
	// the epoch of the view the answer was computed against, which
	// advances with every published mutation — finer-grained than
	// Generation, which only moves on hot-swap.
	Epoch uint64
}

// Snapshot is what a Server serves: any consistent, concurrently
// readable view that can answer assignment queries. The frozen *Model
// is the canonical implementation; live.Model's epoch views implement
// it too, which is how the write path slots under the unchanged
// serving machinery. Implementations must be safe for unlimited
// concurrent callers and must answer every query against one coherent
// state (frozen data, or one pinned epoch per call).
type Snapshot interface {
	// Dim returns the dimensionality queries must have.
	Dim() int
	// AssignBatch answers one query per point of qs (flat row-major,
	// len(out) points), writing the Assignment for query i to out[i].
	AssignBatch(qs []float64, out []Assignment)
	// AssignOne answers a single query, reusing the caller's neighbour
	// buffer (returned grown for the next call).
	AssignOne(q []float64, nbrs []int32) (Assignment, []int32)
}

var _ Snapshot = (*Model)(nil)

// classify turns one query's eps-neighbourhood into an Assignment.
// Taking the minimum labelled core neighbour makes the answer a pure
// function of the neighbour *set*, so it is deterministic even though
// tree traversal order is unspecified.
func (m *Model) classify(nbrs []int32) Assignment {
	a := Assignment{Cluster: Noise, Core: len(nbrs)+1 >= m.minPts}
	for _, nb := range nbrs {
		if !m.isCore(nb) {
			continue
		}
		if l := m.labels[nb]; l >= 0 && (a.Cluster == Noise || l < a.Cluster) {
			a.Cluster = l
		}
	}
	return a
}

// Assign answers one query against the snapshot. It is safe to call
// from any number of goroutines; each call allocates a neighbour
// buffer, so hot paths should prefer AssignBatch or a Server.
func (m *Model) Assign(q []float64) Assignment {
	return m.classify(m.tree.Radius(q, m.eps, nil, nil))
}

// AssignBatch answers one query per point of qs (flat row-major,
// len(out) points) in a single kd-tree traversal batch, writing the
// Assignment for query i to out[i]. Buffers are shared across the
// batch via kdtree.RadiusBatch; results equal per-query Assign calls.
func (m *Model) AssignBatch(qs []float64, out []Assignment) {
	if len(out) == 0 {
		return
	}
	m.tree.RadiusBatch(qs[:len(out)*m.ds.Dim], m.ds.Dim, m.eps, nil, func(qi int, nbrs []int32) {
		out[qi] = m.classify(nbrs)
	})
}

// Dim returns the dimensionality queries must have.
func (m *Model) Dim() int { return m.ds.Dim }
