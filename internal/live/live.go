// Package live is the mutable serving subsystem: a Model that wraps a
// frozen clustering (dataset + packed kd-tree + labels, exactly the
// broadcast snapshot internal/serve freezes) plus a delta overlay that
// absorbs point insertions and deletions without an offline rerun.
//
// The correctness lever is the same locality argument the paper's
// partition-merge design exploits: DBSCAN updates are local. Inserting
// or deleting a point can only change core status inside its
// eps-neighbourhood, and can only change connectivity among points
// reachable through that neighbourhood. Insert and Delete therefore
// recompute core status for the changed point's neighbours, union
// newly connected cores through internal/dsu, and re-attach or demote
// the affected border points — a bounded local re-expansion instead of
// a full recluster.
//
// Three structures, plus immutable epochs, make reads wait-free while
// writes mutate:
//
//   - an append-only point arena (fixed-size coordinate chunks; a slot
//     is written once, before the view exposing it is published, and
//     never rewritten),
//   - an append-only overlay grid (an eps-side cell hash over the
//     arena's slots, one per base; the writer appends a slot to its
//     cell's bucket before publishing it, and a reader stops at the
//     first slot its view does not cover), which bounds both the
//     writer's and the readers' overlay search to nearby cells,
//   - chunked copy-on-write label state (label / core / tombstone bits
//     in 256-point chunks; a write copies the dirty chunks and the
//     spine, never touching chunks a published view can see).
//
// Every mutation publishes a new immutable view through one atomic
// pointer, and a reader pins a view with one atomic load. Nothing a
// published view reaches is ever rewritten, so an epoch needs no
// manual reclamation: the garbage collector frees its replaced chunks
// once no reader holds it.
//
// Deletions only tombstone and demote; they never split a cluster
// in place (a split requires global re-expansion, which is exactly
// what reconciliation is for). Between reconciles the model therefore
// degrades one-sidedly: core flags and the noise set stay exact, and
// clusters can only be coarser — never finer, never wrong about
// density — than a from-scratch DBSCAN on the surviving points.
// Reconcile (triggered by overlay-size or drift thresholds, or by
// ReconcileNow) reclusters the survivors from scratch with the exact
// parallel engine of internal/pdsdbscan and swaps the result in as a
// new frozen base through the same atomic publish.
// DESIGN.md §17 states and proves the invariants; the property tests
// in live_test.go pin them.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/dsu"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/pdsdbscan"
)

// Noise is the label of points in no cluster.
const Noise = dbscan.Noise

// chunkPts is the copy-on-write granularity: label/core/tombstone
// state is published in chunks of this many points, so one mutation
// copies O(neighbourhood/chunkPts + spine) memory, not O(n).
const chunkPts = 256

// chunk is one immutable-once-published block of per-point state.
// label holds the cluster *handle* (see Model.canon), not the
// canonical label readers report.
type chunk struct {
	label [chunkPts]int32
	core  [chunkPts / 64]uint64
	tomb  [chunkPts / 64]uint64
}

// coordChunk is one block of the append-only overlay arena. Slots are
// written exactly once, before the view exposing them is published;
// published slots are never rewritten, so readers need no
// synchronization beyond the view load.
type coordChunk struct {
	pts []float64 // chunkPts * dim, fixed length
}

// baseSnap is the frozen foundation a Model currently stands on: the
// dataset and kd-tree of the last reconcile (or of construction).
// Immutable; replaced wholesale by Reconcile.
type baseSnap struct {
	ds   *geom.Dataset
	tree *kdtree.Tree
	n    int          // ds.Len(), the number of base points
	grid *overlayGrid // the spatial index over this base's overlay slots
}

func newBaseSnap(ds *geom.Dataset, tree *kdtree.Tree, eps float64) *baseSnap {
	return &baseSnap{ds: ds, tree: tree, n: ds.Len(), grid: newOverlayGrid(ds, eps)}
}

// view is one immutable epoch of the model. Everything reachable from
// a view is either immutable (base, coordinate slots, canon) or owned
// by this view and the epochs that share it (chunks) — a pinned view
// is a consistent snapshot forever.
type view struct {
	epoch  uint64
	base   *baseSnap
	chunks []*chunk      // spine over global indices [0, base.n+extraN)
	extra  []*coordChunk // overlay arena spine
	extraN int           // overlay slots this epoch may read
	canon  []int32       // handle -> canonical cluster label
	live   int           // non-tombstoned points
	eps    float64
	minPts int
	dim    int
}

// Options configures a Model's reconciliation thresholds.
type Options struct {
	// MaxOverlay triggers a reconcile when the overlay (inserted points
	// plus tombstones) exceeds this many entries. 0 means the default
	// (4096); negative disables the size trigger.
	MaxOverlay int
	// MaxDrift triggers a reconcile when mutations-since-base divided
	// by the live point count exceeds this fraction. 0 means the
	// default (0.25); negative disables the drift trigger.
	MaxDrift float64
}

const (
	defaultMaxOverlay = 4096
	defaultMaxDrift   = 0.25
)

func (o Options) withDefaults() Options {
	if o.MaxOverlay == 0 {
		o.MaxOverlay = defaultMaxOverlay
	}
	if o.MaxDrift == 0 {
		o.MaxDrift = defaultMaxDrift
	}
	return o
}

// Stats is a point-in-time snapshot of a Model's mutation history.
type Stats struct {
	Epoch              uint64  `json:"epoch"`
	Live               int     `json:"live"`
	Overlay            int     `json:"overlay"`    // inserted-since-base slots
	Tombstones         int     `json:"tombstones"` // deleted-since-base points
	Inserts            uint64  `json:"inserts"`
	Deletes            uint64  `json:"deletes"`
	Promotions         uint64  `json:"promotions"`
	Demotions          uint64  `json:"demotions"`
	MutationsSinceBase int     `json:"mutations_since_base"`
	Drift              float64 `json:"drift"`
	Reconciles         uint64  `json:"reconciles"`
}

// Model is a mutable DBSCAN model: a frozen base plus a delta overlay,
// read through immutable epoch views. All mutators serialize on one
// internal mutex (the single-writer discipline); any number of
// goroutines may Pin and read concurrently, wait-free.
type Model struct {
	cur atomic.Pointer[view]

	mu   sync.Mutex // the single-writer lock; guards everything below
	p    dbscan.Params
	opts Options
	base *baseSnap

	// Flat writer-side source of truth, indexed by global point id:
	// base points are [0, base.n), overlay points follow.
	labels   []int32 // cluster handle, or Noise
	counts   []int32 // |closed eps-neighbourhood| over live points
	core     []bool
	tomb     []bool
	ids      []int64 // external id per global point
	idx      map[int64]int32
	extra    []*coordChunk
	overlayN int
	live     int

	// Cluster handles. Offline cluster ids seed the handle space; an
	// inserted core point with no labelled neighbour opens a fresh
	// handle via dsu.Add. canon (published per view) maps a handle to
	// the minimum handle of its connected component, so readers see
	// stable canonical labels without chasing the union-find.
	handles    *dsu.DSU
	compMin    []int32 // per element, min handle of its component (valid at roots)
	canonDirty bool
	canon      []int32 // last published canon

	nbrBuf    []int32            // reusable writer-side neighbour buffer
	dirty     map[int32]struct{} // chunk ids to copy at next publish
	epoch     uint64
	mutations int // since base

	inserts, deletes, promotions, demotions, reconciles uint64
	lastReconcile                                       ReconcileStats

	// testOnPublish, when set (tests only), runs under the writer lock
	// immediately after each view is published — the stress tests use it
	// to snapshot every epoch deterministically.
	testOnPublish func(v *view)
}

// NewModel wraps a finished clustering into a live model. labels must
// hold one entry per dataset point (cluster id or Noise) — typically
// dbscan.Run output. tree may be nil (one is built). The dataset and
// tree are adopted and must not be mutated by the caller afterwards;
// labels are copied. External ids are assigned 0..n-1, matching the
// dataset order (Insert introduces new ids).
func NewModel(ds *geom.Dataset, labels []int32, tree *kdtree.Tree, p dbscan.Params, opts Options) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	n := ds.Len()
	if len(labels) != n {
		return nil, fmt.Errorf("live: %d labels for %d points", len(labels), n)
	}
	if tree == nil {
		tree = kdtree.Build(ds)
	} else if tree.Size() != n {
		return nil, fmt.Errorf("live: tree over %d points, dataset has %d", tree.Size(), n)
	}
	m := &Model{
		p:      p,
		opts:   opts.withDefaults(),
		base:   newBaseSnap(ds, tree, p.Eps),
		labels: append([]int32(nil), labels...),
		counts: pdsdbscan.Census(ds, tree, p.Eps),
		core:   make([]bool, n),
		tomb:   make([]bool, n),
		ids:    make([]int64, n),
		idx:    make(map[int64]int32, n),
		live:   n,
		dirty:  make(map[int32]struct{}),
	}
	maxLabel := int32(-1)
	for i, c := range m.counts {
		m.core[i] = int(c) >= p.MinPts
		m.ids[i] = int64(i)
		m.idx[int64(i)] = int32(i)
		if labels[i] > maxLabel {
			maxLabel = labels[i]
		}
	}
	m.handles = dsu.New(int(maxLabel) + 1)
	m.compMin = make([]int32, maxLabel+1)
	m.canon = make([]int32, maxLabel+1)
	for h := range m.compMin {
		m.compMin[h] = int32(h)
		m.canon[h] = int32(h)
	}
	m.publishAll()
	return m, nil
}

// publishAll publishes a view whose every chunk is fresh: the first
// epoch, and the first one over each reconciled base.
func (m *Model) publishAll() {
	for cid := 0; cid*chunkPts < len(m.labels); cid++ {
		m.dirty[int32(cid)] = struct{}{}
	}
	m.publish()
}

// newChunk builds chunk cid from the flat writer state.
func (m *Model) newChunk(cid int32) *chunk {
	c := &chunk{}
	start := int(cid) * chunkPts
	end := start + chunkPts
	if end > len(m.labels) {
		end = len(m.labels)
	}
	for g := start; g < end; g++ {
		s := g - start
		c.label[s] = m.labels[g]
		if m.core[g] {
			c.core[s/64] |= 1 << (s % 64)
		}
		if m.tomb[g] {
			c.tomb[s/64] |= 1 << (s % 64)
		}
	}
	for s := end - start; s < chunkPts; s++ {
		c.label[s] = Noise
	}
	return c
}

// markDirty records that global point g's chunk must be republished.
func (m *Model) markDirty(g int32) { m.dirty[g/chunkPts] = struct{}{} }

// publish builds and installs the next epoch's view: copy the spine,
// replace the dirty chunks with fresh copies of the flat state, and
// recompute canon if the union-find changed. The outgoing view keeps
// its own chunks for whoever still holds it. Runs under m.mu.
func (m *Model) publish() {
	spine := make([]*chunk, (len(m.labels)+chunkPts-1)/chunkPts)
	if old := m.cur.Load(); old != nil {
		copy(spine, old.chunks)
	}
	for cid := range m.dirty {
		spine[cid] = m.newChunk(cid)
	}
	clear(m.dirty)
	if m.canonDirty {
		canon := make([]int32, m.handles.Len())
		for h := range canon {
			canon[h] = m.compMin[m.handles.Find(int32(h))]
		}
		m.canon = canon
		m.canonDirty = false
	}
	m.epoch++
	v := &view{
		epoch: m.epoch, base: m.base, chunks: spine,
		extra: append([]*coordChunk(nil), m.extra...), extraN: m.overlayN,
		canon: m.canon, live: m.live,
		eps: m.p.Eps, minPts: m.p.MinPts, dim: m.base.ds.Dim,
	}
	m.cur.Store(v)
	if m.testOnPublish != nil {
		m.testOnPublish(v)
	}
}

// Pin returns the current epoch as a Guard: one atomic load. Readers
// never take m.mu, so the read path is wait-free.
func (m *Model) Pin() *Guard { return &Guard{v: m.cur.Load()} }

// Guard is a pinned epoch: a consistent snapshot of the model at one
// epoch, for as long as the Guard is held. Its methods are read-only,
// and a Guard may be shared across goroutines. Once no Guard holds an
// epoch, the garbage collector frees the memory only that epoch used.
type Guard struct {
	v *view
}

// Close releases nothing: the garbage collector owns epochs. It is
// kept so that callers may scope a Guard; the Guard stays readable.
func (g *Guard) Close() {}

// Epoch identifies the pinned snapshot; it increases by one per
// published mutation or reconcile.
func (g *Guard) Epoch() uint64 { return g.v.epoch }

// NumPoints is the number of global point slots (base + overlay,
// including tombstoned slots) addressable through Label.
func (g *Guard) NumPoints() int { return g.v.base.n + g.v.extraN }

// Live is the number of non-tombstoned points in the snapshot.
func (g *Guard) Live() int { return g.v.live }

// Dim is the dimensionality of the model's points.
func (g *Guard) Dim() int { return g.v.dim }

// Label returns the canonical cluster label of global point i, or
// Noise if the point is noise or has been deleted.
func (g *Guard) Label(i int32) int32 { return g.v.labelAt(i) }

// Core reports whether global point i is a live core point.
func (g *Guard) Core(i int32) bool { return !g.v.tombAt(i) && g.v.coreAt(i) }

// Deleted reports whether global point i is tombstoned.
func (g *Guard) Deleted(i int32) bool { return g.v.tombAt(i) }

// At returns the coordinates of global point i (a view; do not
// mutate). Valid for tombstoned points too.
func (g *Guard) At(i int32) []float64 { return g.v.at(i) }

// Delta returns the snapshot's overlay index: the points inserted
// since the last reconcile, searched through the overlay grid,
// reporting global indices. It implements kdtree.Index and answers
// from the Guard's epoch.
func (g *Guard) Delta() kdtree.Index { return &DeltaIndex{v: g.v} }

// Survivors materializes the snapshot's live points as a compact
// dataset plus their canonical labels, in global-index order — the
// exact input a from-scratch DBSCAN run would see, which is what the
// equivalence property tests compare against.
func (g *Guard) Survivors() (*geom.Dataset, []int32) {
	v := g.v
	ds := geom.NewDataset(v.live, v.dim)
	labels := make([]int32, 0, v.live)
	k := int32(0)
	total := int32(v.base.n + v.extraN)
	for i := int32(0); i < total; i++ {
		if v.tombAt(i) {
			continue
		}
		ds.Set(k, v.at(i))
		labels = append(labels, v.labelAt(i))
		k++
	}
	return ds, labels
}

// view accessors — all read immutable or owned state.

func (v *view) at(g int32) []float64 {
	if int(g) < v.base.n {
		return v.base.ds.At(g)
	}
	j := int(g) - v.base.n
	cc := v.extra[j/chunkPts]
	off := (j % chunkPts) * v.dim
	return cc.pts[off : off+v.dim : off+v.dim]
}

func (v *view) labelAt(g int32) int32 {
	if v.tombAt(g) {
		return Noise
	}
	h := v.chunks[g/chunkPts].label[g%chunkPts]
	if h < 0 {
		return Noise
	}
	return v.canon[h]
}

func (v *view) coreAt(g int32) bool {
	s := uint(g % chunkPts)
	return v.chunks[g/chunkPts].core[s/64]&(1<<(s%64)) != 0
}

func (v *view) tombAt(g int32) bool {
	s := uint(g % chunkPts)
	return v.chunks[g/chunkPts].tomb[s/64]&(1<<(s%64)) != 0
}

// Params returns the DBSCAN parameters the model clusters under.
func (m *Model) Params() dbscan.Params { return m.p }

// Epoch returns the current epoch without pinning it.
func (m *Model) Epoch() uint64 { return m.cur.Load().epoch }

// Reconciles returns how many reconciliations have run.
func (m *Model) Reconciles() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reconciles
}

// Stats snapshots the mutation counters.
func (m *Model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	tombs := (m.base.n + m.overlayN) - m.live
	s := Stats{
		Epoch:              m.epoch,
		Live:               m.live,
		Overlay:            m.overlayN,
		Tombstones:         tombs,
		Inserts:            m.inserts,
		Deletes:            m.deletes,
		Promotions:         m.promotions,
		Demotions:          m.demotions,
		MutationsSinceBase: m.mutations,
		Reconciles:         m.reconciles,
	}
	if m.live > 0 {
		s.Drift = float64(m.mutations) / float64(m.live)
	}
	return s
}
