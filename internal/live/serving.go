package live

import (
	"sync"
	"time"

	"sparkdbscan/internal/serve"
)

// servingView adapts a Model to serve.Snapshot: every call answers
// against the epoch current when it starts, one consistent snapshot.
type servingView struct {
	m *Model
}

var _ serve.Snapshot = servingView{}

// Serving returns the Model's serve.Snapshot adapter, suitable for
// serve.NewServer / serve.Server.Swap. The adapter is stateless; the
// epoch is chosen per call, so a long-lived Server automatically
// serves every published mutation without re-swapping (Swap is only
// needed to advance the *generation*, e.g. after a reconcile).
func (m *Model) Serving() serve.Snapshot { return servingView{m: m} }

// Dim implements serve.Snapshot.
func (sv servingView) Dim() int { return sv.m.cur.Load().dim }

// Assign implements serve.Snapshot: it answers against the current
// epoch.
func (sv servingView) Assign(q []float64) serve.Assignment {
	return sv.m.cur.Load().assign(q)
}

// Assign answers one query against the pinned snapshot, with the same
// semantics as serve.Model.Assign: the point joins the cluster of its
// minimum-labelled live core neighbour, and is core if its closed
// eps-neighbourhood over the live points reaches minPts.
func (g *Guard) Assign(q []float64) serve.Assignment {
	return g.v.assign(q)
}

// assign merges the base-tree neighbourhood (minus tombstones) with
// the overlay's, then classifies exactly like serve.Model: minimum
// canonical label among live core neighbours, deterministic in the
// neighbour *set*. The epoch is stamped on the answer. The neighbour
// list starts in a stack array; only a neighbourhood above 256 points
// moves it to the heap.
func (v *view) assign(q []float64) serve.Assignment {
	var buf [256]int32
	nbrs := v.base.tree.Radius(q, v.eps, buf[:0], nil)
	k := 0
	for _, nb := range nbrs {
		if !v.tombAt(nb) {
			nbrs[k] = nb
			k++
		}
	}
	nbrs = (&DeltaIndex{v: v}).Radius(q, v.eps, nbrs[:k], nil)
	a := serve.Assignment{Cluster: serve.Noise, Core: len(nbrs)+1 >= v.minPts, Epoch: v.epoch}
	for _, nb := range nbrs {
		if !v.coreAt(nb) {
			continue
		}
		if l := v.labelAt(nb); l >= 0 && (a.Cluster == serve.Noise || l < a.Cluster) {
			a.Cluster = l
		}
	}
	return a
}

// Server is a serve.Server over a live Model plus the write path the
// frozen server lacks. Insert and Delete apply their mutation under
// the server's mutex, and the Model serializes them with any other
// writer on its own lock. The embedded Server's read path stays
// wait-free: readers load epochs and never contend with writes. When
// a write pushes the model over a reconciliation threshold, the write
// swaps the reconciled model in under the existing generation
// contract: the generation counter advances once per reconcile,
// exactly like a frozen hot-swap.
type Server struct {
	*serve.Server
	m *Model

	mu     sync.Mutex // held by each write and its swap; guards closed
	closed bool
}

// NewServer starts a serving pool over m's current and future epochs.
// The caller must Close (or Drain) it.
func NewServer(m *Model, opts serve.Options) *Server {
	return &Server{Server: serve.NewServer(m.Serving(), opts), m: m}
}

// LiveModel returns the live model being served.
func (s *Server) LiveModel() *Model { return s.m }

// Insert applies an insertion; the new epoch is published when it
// returns.
func (s *Server) Insert(id int64, p []float64) error {
	return s.write(func() error { return s.m.Insert(id, p) })
}

// Delete applies a deletion; the new epoch is published when it
// returns.
func (s *Server) Delete(id int64) error {
	return s.write(func() error { return s.m.Delete(id) })
}

// write applies op unless the server is closed and, when op triggered
// a reconcile, re-swaps the serving snapshot so the generation counter
// records the base change.
func (s *Server) write(op func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return serve.ErrClosed
	}
	before := s.m.Reconciles()
	err := op()
	if s.m.Reconciles() != before {
		_, _ = s.Server.Swap(s.m.Serving())
	}
	return err
}

// closeWrites stops accepting mutations. A write already holding the
// mutex finishes first.
func (s *Server) closeWrites() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Close stops the write path (a write in progress still completes),
// then closes the read pool abruptly.
func (s *Server) Close() {
	s.closeWrites()
	s.Server.Close()
}

// Drain stops the write path, then drains the read pool gracefully
// within timeout.
func (s *Server) Drain(timeout time.Duration) int {
	s.closeWrites()
	return s.Server.Drain(timeout)
}
