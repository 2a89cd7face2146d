package live

import (
	"fmt"

	"sparkdbscan/internal/geom"
)

// Insert adds a point under external id and performs the
// IncrementalDBSCAN-style local update: the neighbourhood counts of
// every point within eps are incremented, points that cross minPts are
// promoted to core, and every point that is (or just became) core is
// locally re-expanded — its handle unioned with every core neighbour's
// and its noise neighbours attached as borders. The new epoch is
// published before Insert returns; concurrent readers on older epochs
// are unaffected. Crossing a reconciliation threshold triggers a
// synchronous reconcile before returning.
func (m *Model) Insert(id int64, p []float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(p) != m.base.ds.Dim {
		return fmt.Errorf("live: insert dimensionality %d != model %d", len(p), m.base.ds.Dim)
	}
	if err := geom.CheckFinite(p); err != nil {
		return fmt.Errorf("live: insert of id %d: %w", id, err)
	}
	if _, dup := m.idx[id]; dup {
		return fmt.Errorf("live: insert of duplicate id %d", id)
	}
	nbrs := m.queryLive(p, m.nbrBuf)
	g := m.appendPoint(id, p)
	m.counts[g] = int32(len(nbrs)) + 1
	m.core[g] = int(m.counts[g]) >= m.p.MinPts
	m.markDirty(g)

	// First pass: bump counts and set every new core flag, so the
	// re-expansions below all see the final core set.
	var promoted []int32
	for _, q := range nbrs {
		m.counts[q]++
		if !m.core[q] && int(m.counts[q]) >= m.p.MinPts {
			m.core[q] = true
			m.markDirty(q)
			promoted = append(promoted, q)
			m.promotions++
		}
	}
	if m.core[g] {
		m.expandCore(g, nbrs)
	} else {
		if h := m.borderHandle(g, nbrs); h != m.labels[g] {
			m.labels[g] = h
		}
	}
	for _, q := range promoted {
		qn := m.queryLive(m.at(q), nil)
		m.expandCore(q, qn)
	}
	m.nbrBuf = nbrs
	m.live++
	m.mutations++
	m.inserts++
	m.publish()
	m.maybeReconcile()
	return nil
}

// Delete tombstones the point with external id and performs the local
// downgrade: neighbourhood counts within eps are decremented, cores
// that fall below minPts are demoted, and every border point that may
// have been attached through the deleted point or a demoted core is
// re-attached to its best remaining core neighbour (or orphaned to
// noise). Connectivity lost through the deleted point is NOT re-split
// here — unions are never rescinded, so between reconciles clusters
// can only be coarser than from-scratch DBSCAN (the documented
// one-sided degradation); reconciliation restores exactness.
func (m *Model) Delete(id int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.idx[id]
	if !ok {
		return fmt.Errorf("live: delete of unknown id %d", id)
	}
	delete(m.idx, id)
	wasCore := m.core[g]
	m.tomb[g] = true
	m.core[g] = false
	m.labels[g] = Noise
	m.markDirty(g)
	m.live--

	nbrs := m.queryLive(m.at(g), m.nbrBuf) // g itself is tombstoned, so excluded
	var demoted []int32
	for _, q := range nbrs {
		m.counts[q]--
		if m.core[q] && int(m.counts[q]) < m.p.MinPts {
			m.core[q] = false
			m.markDirty(q)
			demoted = append(demoted, q)
			m.demotions++
		}
	}
	// Affected borders: every non-core neighbour of a deleted core may
	// have been attached through it; every demoted core becomes a
	// border candidate itself, and so does every non-core neighbour it
	// was holding. Duplicates are harmless — reattachment is a pure
	// function of the post-update state.
	var affected []int32
	if wasCore {
		for _, q := range nbrs {
			if !m.core[q] {
				affected = append(affected, q)
			}
		}
	}
	m.nbrBuf = nbrs
	for _, q := range demoted {
		affected = append(affected, q)
		qn := m.queryLive(m.at(q), nil)
		for _, w := range qn {
			if w != q && !m.core[w] {
				affected = append(affected, w)
			}
		}
	}
	for _, a := range affected {
		if m.core[a] || m.tomb[a] {
			continue
		}
		an := m.queryLive(m.at(a), nil)
		if h := m.borderHandle(a, an); h != m.labels[a] {
			m.labels[a] = h
			m.markDirty(a)
		}
	}
	m.mutations++
	m.deletes++
	m.publish()
	m.maybeReconcile()
	return nil
}

// expandCore runs the bounded local re-expansion around core point g
// with neighbourhood nbrs: give g a handle (its own if it has one, an
// adjacent core's otherwise, a fresh one if isolated), union it with
// every core neighbour, and attach every unlabelled non-core
// neighbour as a border of g's cluster.
func (m *Model) expandCore(g int32, nbrs []int32) {
	h := m.labels[g]
	if h < 0 {
		for _, nb := range nbrs {
			if nb != g && m.core[nb] && m.labels[nb] >= 0 {
				h = m.labels[nb]
				break
			}
		}
	}
	if h < 0 {
		h = m.handles.Add()
		m.compMin = append(m.compMin, h)
		m.canonDirty = true
	}
	if m.labels[g] != h {
		m.labels[g] = h
		m.markDirty(g)
	}
	for _, nb := range nbrs {
		if nb == g {
			continue
		}
		if m.core[nb] {
			if m.labels[nb] >= 0 {
				m.union(h, m.labels[nb])
			} else {
				m.labels[nb] = h
				m.markDirty(nb)
			}
		} else if m.labels[nb] < 0 {
			m.labels[nb] = h
			m.markDirty(nb)
		}
	}
}

// borderHandle picks the handle a non-core point g should carry given
// its neighbourhood: the handle of the core neighbour whose canonical
// label is smallest (matching serve.Model's deterministic tie-break),
// or Noise if no core point is in reach.
func (m *Model) borderHandle(g int32, nbrs []int32) int32 {
	best := int32(Noise)
	var bestCanon int32
	for _, nb := range nbrs {
		if nb == g || !m.core[nb] || m.labels[nb] < 0 {
			continue
		}
		c := m.canonOf(m.labels[nb])
		if best < 0 || c < bestCanon {
			best, bestCanon = m.labels[nb], c
		}
	}
	return best
}

// union merges two handles' components, maintaining compMin at the
// surviving root so canonical labels stay the component minimum.
func (m *Model) union(a, b int32) {
	ra, rb := m.handles.Find(a), m.handles.Find(b)
	if ra == rb {
		return
	}
	mn := m.compMin[ra]
	if m.compMin[rb] < mn {
		mn = m.compMin[rb]
	}
	m.handles.Union(ra, rb)
	m.compMin[m.handles.Find(ra)] = mn
	m.canonDirty = true
}

// canonOf resolves a handle to its canonical (component-minimum) label.
func (m *Model) canonOf(h int32) int32 { return m.compMin[m.handles.Find(h)] }

// queryLive returns the global indices of every live (non-tombstoned)
// point within the closed eps-ball of q: base points through the
// frozen kd-tree, then overlay points in ascending index through the
// overlay grid — the same search the published DeltaIndex runs.
func (m *Model) queryLive(q []float64, out []int32) []int32 {
	out = m.base.tree.Radius(q, m.p.Eps, out[:0], nil)
	k := 0
	for _, nb := range out {
		if !m.tomb[nb] {
			out[k] = nb
			k++
		}
	}
	dead := func(g int32) bool { return m.tomb[g] }
	return m.base.grid.search(q, m.p.Eps, -1, m.extra, m.overlayN, dead, out[:k], nil)
}

// at returns the coordinates of global point g from the writer's state.
func (m *Model) at(g int32) []float64 {
	if int(g) < m.base.n {
		return m.base.ds.At(g)
	}
	j := int(g) - m.base.n
	dim := m.base.ds.Dim
	off := (j % chunkPts) * dim
	return m.extra[j/chunkPts].pts[off : off+dim : off+dim]
}

// appendPoint writes p into the next overlay arena slot, adds the slot
// to the overlay grid and grows the flat state. The slot is not
// visible to readers until the next publish makes extraN cover it, so
// writing it here is race-free.
func (m *Model) appendPoint(id int64, p []float64) int32 {
	dim := m.base.ds.Dim
	j := m.overlayN
	if j%chunkPts == 0 {
		m.extra = append(m.extra, &coordChunk{pts: make([]float64, chunkPts*dim)})
	}
	copy(m.extra[j/chunkPts].pts[(j%chunkPts)*dim:(j%chunkPts+1)*dim], p)
	m.base.grid.add(int32(j), p)
	g := int32(m.base.n + j)
	m.overlayN++
	m.labels = append(m.labels, Noise)
	m.counts = append(m.counts, 0)
	m.core = append(m.core, false)
	m.tomb = append(m.tomb, false)
	m.ids = append(m.ids, id)
	m.idx[id] = g
	return g
}
