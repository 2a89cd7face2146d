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
// analogue of the broadcast variable: dataset, packed kd-tree, each
// point's assignment key (its label if it is a core point) with the
// tree's per-node key minima, and the eps/minPts parameters, all
// immutable and therefore safe for unlimited concurrent readers.
//
// On top of the snapshot, Server runs a sharded worker pool with
// adaptive micro-batching (a worker drains every queued query per
// wakeup and answers them on one snapshot load, amortizing dispatch), a
// bounded admission queue with deadline-based load shedding, per-
// request context cancellation, and zero-downtime model hot-swap via
// an atomic pointer with a generation counter surfaced in responses.
//
// The offline clustering path never imports this package; the
// dependency points one way (serve → dbscan/pdsdbscan/kdtree/geom), so
// serving can never perturb offline results.
package serve

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/pdsdbscan"
)

// Noise is returned by Assign for points that would join no cluster.
const Noise = dbscan.Noise

// Model is an immutable serving snapshot of one finished clustering:
// the dataset, its packed kd-tree, per-point assignment keys with
// their per-node minima, and the DBSCAN parameters the labels were
// produced with. All fields are private and never written after
// Freeze, so any number of goroutines may query a Model concurrently
// with no locking.
type Model struct {
	ds   *geom.Dataset
	tree *kdtree.Tree
	// keys[i] is point i's label if it is a core point of a cluster,
	// kdtree.NoKey otherwise: the least key within eps of a query is
	// the cluster it joins. mins is tree.KeyMins(keys).
	keys   []int32
	mins   []int32
	eps    float64
	minPts int

	numClusters int
	numCore     int
}

// Freeze snapshots a clustering into a servable Model. labels must
// hold one entry per dataset point (cluster id or dbscan.Noise).
//
// core marks the core points; pass nil to have Freeze derive the
// flags from the tree (pdsdbscan.Census, a parallel pass of block
// neighbourhood queries — the core property is |eps-neighbourhood| >=
// minPts, independent of labels), which is what distributed runs do
// since the driver-side merge only keeps labels. tree may be nil, in
// which case Freeze builds one.
//
// The labels and core flags are read once, into the keys; the dataset
// and tree are shared with the caller and must not be mutated
// afterwards — the same contract kdtree.Build already imposes.
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
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if tree == nil {
		tree = kdtree.Build(ds)
	} else if tree.Size() != n {
		return nil, fmt.Errorf("serve: tree over %d points, dataset has %d", tree.Size(), n)
	}
	isCore := core
	if isCore == nil {
		isCore = make([]bool, n)
		for i, c := range pdsdbscan.Census(ds, tree, p.Eps) {
			isCore[i] = int(c) >= p.MinPts
		}
	}
	m := &Model{
		ds:     ds,
		tree:   tree,
		keys:   make([]int32, n),
		eps:    p.Eps,
		minPts: p.MinPts,
	}
	for i, l := range labels {
		m.numClusters = max(m.numClusters, int(l)+1)
		m.keys[i] = kdtree.NoKey
		if isCore[i] {
			m.numCore++
			if l >= 0 {
				m.keys[i] = l
			}
		}
	}
	m.mins = tree.KeyMins(m.keys)
	return m, nil
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
	// Assign answers one query.
	Assign(q []float64) Assignment
}

var _ Snapshot = (*Model)(nil)

// Assign answers one query against the snapshot. It is safe to call
// from any number of goroutines and allocates nothing.
//
// One kdtree.MinKey descent settles both facts: the least key within
// eps is the lowest cluster id among the core neighbours (NoKey: none),
// and the neighbourhood counted up to minPts-1 says whether the query,
// counting itself, would be core.
func (m *Model) Assign(q []float64) Assignment {
	key, count := m.tree.MinKey(q, m.eps, m.keys, m.mins, m.minPts-1, nil)
	a := Assignment{Cluster: Noise, Core: count >= m.minPts-1}
	if key != kdtree.NoKey {
		a.Cluster = key
	}
	return a
}

// AssignBatch answers one query per point of qs (flat row-major,
// len(out) points), writing the Assignment for query i to out[i];
// results equal per-query Assign calls.
func (m *Model) AssignBatch(qs []float64, out []Assignment) {
	dim := m.ds.Dim
	for i := range out {
		out[i] = m.Assign(qs[i*dim : (i+1)*dim : (i+1)*dim])
	}
}

// Dim returns the dimensionality queries must have.
func (m *Model) Dim() int { return m.ds.Dim }
