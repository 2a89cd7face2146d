package live

import (
	"sync"
	"time"

	"sparkdbscan/internal/serve"
)

// servingView adapts a Model to serve.Snapshot: every call pins the
// current epoch, answers against that one consistent snapshot, and
// unpins.
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

// Assign implements serve.Snapshot: it pins the current epoch,
// answers against it, and unpins.
func (sv servingView) Assign(q []float64) serve.Assignment {
	g := sv.m.Pin()
	a := g.v.assign(q)
	g.Close()
	return a
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

// writeOp is one mutation routed to the writer goroutine.
type writeOp struct {
	del  bool
	id   int64
	pt   []float64
	resp chan error
}

// Server is a serve.Server over a live Model plus the write path the
// frozen server lacks: Insert and Delete route through one writer
// goroutine per model (the single-writer discipline that keeps the
// overlay coherent), while the embedded Server's read path stays
// wait-free — readers pin epochs, they never contend with the writer.
// When a write pushes the model over a reconciliation threshold the
// reconcile runs on the writer goroutine and the swapped-in base is
// published to readers under the existing generation contract (the
// generation counter advances, exactly like a frozen hot-swap).
type Server struct {
	*serve.Server
	m *Model

	mu     sync.Mutex // guards closed vs. in-flight submits
	closed bool
	writes chan writeOp
	wg     sync.WaitGroup
}

// NewServer starts a serving pool over m's current and future epochs.
// The caller must Close (or Drain) it.
func NewServer(m *Model, opts serve.Options) *Server {
	s := &Server{
		Server: serve.NewServer(m.Serving(), opts),
		m:      m,
		writes: make(chan writeOp, 512),
	}
	s.wg.Add(1)
	go s.runWriter()
	return s
}

// Model returns the live model being served.
func (s *Server) LiveModel() *Model { return s.m }

// Insert routes an insertion through the writer goroutine and waits
// for the new epoch to be published (the answer is durable in the
// model when Insert returns). The coordinate slice is copied.
func (s *Server) Insert(id int64, p []float64) error {
	return s.submit(writeOp{id: id, pt: append([]float64(nil), p...), resp: make(chan error, 1)})
}

// Delete routes a deletion through the writer goroutine and waits for
// the new epoch to be published.
func (s *Server) Delete(id int64) error {
	return s.submit(writeOp{del: true, id: id, resp: make(chan error, 1)})
}

func (s *Server) submit(op writeOp) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return serve.ErrClosed
	}
	s.writes <- op // under mu, so closeWrites cannot close the channel mid-send
	s.mu.Unlock()
	return <-op.resp
}

// runWriter is the single writer goroutine: it applies mutations in
// arrival order and, when one triggered a reconcile, re-swaps the
// serving snapshot so the generation counter records the base change.
func (s *Server) runWriter() {
	defer s.wg.Done()
	for op := range s.writes {
		before := s.m.Reconciles()
		var err error
		if op.del {
			err = s.m.Delete(op.id)
		} else {
			err = s.m.Insert(op.id, op.pt)
		}
		if s.m.Reconciles() != before {
			_, _ = s.Server.Swap(s.m.Serving())
		}
		op.resp <- err
	}
}

// closeWrites stops accepting mutations and waits for the writer to
// apply every already-accepted one.
func (s *Server) closeWrites() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.writes)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Close stops the write path (accepted mutations are still applied),
// then closes the read pool abruptly.
func (s *Server) Close() {
	s.closeWrites()
	s.Server.Close()
}

// Drain stops the write path, applies accepted mutations, then drains
// the read pool gracefully within timeout.
func (s *Server) Drain(timeout time.Duration) int {
	s.closeWrites()
	return s.Server.Drain(timeout)
}
