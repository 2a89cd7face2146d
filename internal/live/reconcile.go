package live

import (
	"time"

	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/pdsdbscan"
)

// ReconcileStats describes one reconciliation.
type ReconcileStats struct {
	// Points is the survivor count the new base was built over.
	Points int `json:"points"`
	// Drift is mutations-since-base / live at the moment the reconcile
	// started — how stale the overlay had become.
	Drift float64 `json:"drift"`
	// Clusters is the cluster count of the fresh clustering.
	Clusters int `json:"clusters"`
	// Duration is the wall-clock cost of the rebuild (writes queue
	// behind it; reads keep answering from their snapshots).
	Duration time.Duration `json:"duration_ns"`
}

// NeedsReconcile reports whether either reconciliation threshold
// (overlay size or drift) is currently exceeded.
func (m *Model) NeedsReconcile() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.needsReconcileLocked()
}

func (m *Model) needsReconcileLocked() bool {
	overlay := m.overlayN + (m.base.n + m.overlayN - m.live)
	if m.opts.MaxOverlay > 0 && overlay > m.opts.MaxOverlay {
		return true
	}
	if m.opts.MaxDrift > 0 && m.live > 0 &&
		float64(m.mutations)/float64(m.live) > m.opts.MaxDrift {
		return true
	}
	return false
}

// maybeReconcile runs a reconcile if a threshold is exceeded. Called
// under m.mu at the end of each mutation.
func (m *Model) maybeReconcile() {
	if m.needsReconcileLocked() {
		m.reconcileLocked()
	}
}

// ReconcileNow rebuilds the model from scratch on the surviving
// points: compact the live points into a fresh dataset (preserving
// external ids), build a kd-tree and cluster it with the parallel
// engine (pdsdbscan, whose labels, core flags and neighbourhood counts
// are sequential DBSCAN's), and publish the result as a new frozen
// base with an empty overlay.
// Reads keep answering throughout — pinned epochs answer from their
// snapshots and the swap is one atomic publish — but the clustering
// runs on GOMAXPROCS goroutines, so concurrent reads share the cores
// with it; writes queue behind the rebuild on the writer lock. After ReconcileNow the
// model's labels are exactly from-scratch DBSCAN's (the tests pin them
// byte for byte), which is what bounds the one-sided drift.
func (m *Model) ReconcileNow() (ReconcileStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reconcileLocked()
}

func (m *Model) reconcileLocked() (ReconcileStats, error) {
	start := time.Now()
	st := ReconcileStats{Points: m.live}
	if m.live > 0 {
		st.Drift = float64(m.mutations) / float64(m.live)
	}

	n := m.live
	ds := geom.NewDataset(n, m.base.ds.Dim)
	ids := make([]int64, 0, n)
	total := m.base.n + m.overlayN
	k := int32(0)
	for g := 0; g < total; g++ {
		if m.tomb[g] {
			continue
		}
		ds.Set(k, m.at(int32(g)))
		ids = append(ids, m.ids[g])
		k++
	}
	tree := kdtree.Build(ds)
	res, err := pdsdbscan.Run(ds, tree, pdsdbscan.Config{Params: m.p})
	if err != nil {
		return st, err
	}
	st.Clusters = res.NumClusters

	m.base = newBaseSnap(ds, tree, m.p.Eps)
	m.labels = res.Labels
	m.core = res.Core
	m.counts = res.Counts
	m.tomb = make([]bool, n)
	m.ids = ids
	m.idx = make(map[int64]int32, n)
	for i, id := range ids {
		m.idx[id] = int32(i)
	}
	m.extra = nil
	m.overlayN = 0
	m.live = n
	nh := res.NumClusters
	m.handles = dsu.New(nh)
	m.compMin = make([]int32, nh)
	m.canon = make([]int32, nh)
	for h := 0; h < nh; h++ {
		m.compMin[h] = int32(h)
		m.canon[h] = int32(h)
	}
	m.canonDirty = false
	m.mutations = 0
	m.reconciles++
	clear(m.dirty)
	m.publishAll()

	st.Duration = time.Since(start)
	m.lastReconcile = st
	return st, nil
}

// LastReconcile returns the stats of the most recent reconciliation
// (zero value if none has run).
func (m *Model) LastReconcile() ReconcileStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastReconcile
}
