package live

// White-box concurrency tests for the epoch protocol. They mirror the
// PR 8 hot-swap-vs-chaos shape: every reader response is verified
// against a snapshot of exactly the epoch that served it, while a
// writer storms mutations and swaps a reconciled base underneath.
// Run with -race: the assertions catch torn updates, the detector
// catches any write to memory a published view can reach.

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

var stressParams = dbscan.Params{Eps: 1.2, MinPts: 4}

func stressModel(t *testing.T, n int, seed uint64) *Model {
	t.Helper()
	r := rng.New(seed)
	ds := geom.NewDataset(n, 2)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 20
	}
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, stressParams)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(ds, res.Labels, tree, stressParams, Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epochWindow keeps the last few published views (via the
// testOnPublish hook, under the writer lock) together with a label
// snapshot materialized at publish time. Readers that land on a
// windowed epoch verify every label against the snapshot; readers on
// an evicted epoch skip verification.
type epochWindow struct {
	mu    sync.Mutex
	snaps map[uint64]*epochSnap
	order []uint64
	keep  int
}

type epochSnap struct {
	v      *view
	labels []int32
}

func (w *epochWindow) publishHook(v *view) {
	labels := make([]int32, v.base.n+v.extraN)
	for i := range labels {
		labels[i] = v.labelAt(int32(i))
	}
	w.mu.Lock()
	w.snaps[v.epoch] = &epochSnap{v: v, labels: labels}
	w.order = append(w.order, v.epoch)
	for len(w.order) > w.keep {
		delete(w.snaps, w.order[0])
		w.order = w.order[1:]
	}
	w.mu.Unlock()
}

func (w *epochWindow) lookup(epoch uint64) *epochSnap {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snaps[epoch]
}

func TestConcurrentReadersAcrossEpochs(t *testing.T) {
	const (
		baseN   = 600
		ops     = 500
		readers = 4
	)
	m := stressModel(t, baseN, 7)
	w := &epochWindow{snaps: map[uint64]*epochSnap{}, keep: 8}
	// Window the initial view too, so readers arriving before the first
	// mutation verify against something.
	w.publishHook(m.cur.Load())
	m.mu.Lock()
	m.testOnPublish = w.publishHook
	m.mu.Unlock()

	done := make(chan struct{})
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for {
				select {
				case <-done:
					return
				default:
				}
				guard := m.Pin()
				snap := w.lookup(guard.Epoch())
				if snap != nil {
					if snap.v != guard.v {
						errs <- "epoch " + strconv.FormatUint(guard.Epoch(), 10) + ": distinct view objects"
						guard.Close()
						return
					}
					for k := 0; k < 50; k++ {
						i := int32(r.Intn(len(snap.labels)))
						if got := guard.Label(i); got != snap.labels[i] {
							errs <- "epoch " + strconv.FormatUint(guard.Epoch(), 10) +
								": label of point " + strconv.Itoa(int(i)) + " torn: " +
								strconv.Itoa(int(got)) + " != snapshot " + strconv.Itoa(int(snap.labels[i]))
							guard.Close()
							return
						}
					}
				}
				// Exercise the serving read path against the pinned view too.
				q := []float64{r.Float64() * 20, r.Float64() * 20}
				_ = guard.Assign(q)
				guard.Close()
			}
		}(g)
	}

	// Mutation storm with a reconcile swap in the middle.
	r := rng.New(99)
	var ids []int64
	nextID := int64(1 << 20)
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			if _, err := m.ReconcileNow(); err != nil {
				t.Fatal(err)
			}
		}
		if len(ids) > 0 && r.Float64() < 0.35 {
			i := r.Intn(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if err := m.Delete(id); err != nil {
				t.Fatal(err)
			}
		} else {
			id := nextID
			nextID++
			if err := m.Insert(id, []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	close(done)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// overlayWant counts, per query, the pinned epoch's surviving overlay
// points within eps, from Survivors (which lists the base's survivors
// first, then the overlay's, in global order).
func overlayWant(g *Guard, qs [][]float64, eps float64) []int {
	ds, _ := g.Survivors()
	first := 0
	for i := int32(0); int(i) < g.v.base.n; i++ {
		if !g.Deleted(i) {
			first++
		}
	}
	want := make([]int, len(qs))
	for qi, q := range qs {
		for s := first; s < ds.Len(); s++ {
			if geom.SqDistD(q, ds.At(int32(s))) <= eps*eps {
				want[qi]++
			}
		}
	}
	return want
}

// checkDelta verifies a pinned epoch's Delta answers against want: as
// many hits, each a live overlay point of that epoch within eps, in
// ascending order. It returns "" or the first mismatch.
func checkDelta(g *Guard, qs [][]float64, want []int, eps float64) string {
	d := g.Delta()
	for qi, q := range qs {
		got := d.Radius(q, eps, nil, nil)
		if len(got) != want[qi] {
			return "epoch " + strconv.FormatUint(g.Epoch(), 10) + ": " + strconv.Itoa(len(got)) +
				" overlay hits, survivors hold " + strconv.Itoa(want[qi])
		}
		for k, nb := range got {
			if int(nb) < g.v.base.n || int(nb) >= g.NumPoints() || g.Deleted(nb) ||
				(k > 0 && got[k-1] >= nb) || geom.SqDistD(q, g.At(nb)) > eps*eps {
				return "epoch " + strconv.FormatUint(g.Epoch(), 10) + ": bad overlay hit " + strconv.Itoa(int(nb))
			}
		}
	}
	return ""
}

// TestDeltaPinnedWhileWriterAppends: a reader pinned at epoch k keeps
// seeing exactly epoch k's overlay while the writer appends into the
// same grid buckets (every insert lands in one small square, a few
// cells wide). One guard is pinned before the storm and checked after
// it; concurrent readers pin, check, and re-check while it runs.
func TestDeltaPinnedWhileWriterAppends(t *testing.T) {
	m := stressModel(t, 300, 19)
	eps := stressParams.Eps
	square := func(r *rng.RNG) []float64 { return []float64{6 + 3*r.Float64(), 6 + 3*r.Float64()} }
	queries := func(r *rng.RNG) [][]float64 {
		qs := make([][]float64, 8)
		for i := range qs {
			qs[i] = square(r)
		}
		return qs
	}
	r := rng.New(23)
	var ids []int64
	write := func(i int) {
		if i%4 == 3 {
			k := r.Intn(len(ids))
			if err := m.Delete(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:k], ids[k+1:]...)
			return
		}
		id := int64(1<<20 + i)
		if err := m.Insert(id, square(r)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 40; i++ {
		write(i)
	}
	early := m.Pin()
	earlyQs := queries(rng.New(24))
	earlyWant := overlayWant(early, earlyQs, eps)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(500 + g))
			for {
				select {
				case <-done:
					return
				default:
				}
				guard := m.Pin()
				qs := queries(r)
				want := overlayWant(guard, qs, eps)
				for rep := 0; rep < 4; rep++ {
					if e := checkDelta(guard, qs, want, eps); e != "" {
						t.Error(e)
						guard.Close()
						return
					}
				}
				guard.Close()
			}
		}(g)
	}
	for i := 40; i < 640; i++ {
		write(i)
	}
	close(done)
	wg.Wait()
	if e := checkDelta(early, earlyQs, earlyWant, eps); e != "" {
		t.Fatal(e)
	}
	early.Close()
}

// TestReclamationWaitsForReaders pins one epoch through a mutation
// storm and a reconcile. The garbage collector is the only reclaimer of
// views, so the held view must outlive every collection with its
// labels intact, while each superseded view nobody holds is freed; once
// the Guard is dropped the model keeps nothing of the held view alive.
func TestReclamationWaitsForReaders(t *testing.T) {
	m := stressModel(t, 300, 13)
	g := m.Pin()
	before := make([]int32, g.NumPoints())
	for i := range before {
		before[i] = g.Label(int32(i))
	}
	var pinnedFreed atomic.Bool
	runtime.SetFinalizer(g.v, func(*view) { pinnedFreed.Store(true) })
	var published, freed atomic.Int64
	m.testOnPublish = func(v *view) {
		published.Add(1)
		runtime.SetFinalizer(v, func(*view) { freed.Add(1) })
	}

	r := rng.New(14)
	for i := 0; i < 120; i++ {
		if err := m.Insert(int64(5000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ReconcileNow(); err != nil {
		t.Fatal(err)
	}
	// Every published view but the current one is unreachable.
	awaitCollection(t, "superseded views", func() bool { return freed.Load() == published.Load()-1 })
	if pinnedFreed.Load() {
		t.Fatal("pinned epoch was collected while its Guard was held")
	}
	for i := range before {
		if got := g.Label(int32(i)); got != before[i] {
			t.Fatalf("pinned snapshot corrupted at %d: %d -> %d", i, before[i], got)
		}
	}
	g.Close()
	awaitCollection(t, "released epoch", pinnedFreed.Load)
	if freed.Load() != published.Load()-1 {
		t.Fatal("the model's current view was collected")
	}
	runtime.KeepAlive(m)
}

// awaitCollection runs the garbage collector until done reports that
// the expected finalizers ran, failing after a few seconds.
func awaitCollection(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("%s still reachable after repeated collections", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestServerChurnWithSwap drives the full serving stack — wait-free
// reads through serve.Server workers, writes through live.Server's
// write path, auto-reconcile swaps — under -race.
func TestServerChurnWithSwap(t *testing.T) {
	m := stressModel(t, 400, 17)
	// Re-enable thresholds so the storm crosses them and swaps happen.
	m.mu.Lock()
	m.opts = Options{MaxOverlay: 96, MaxDrift: -1}.withDefaults()
	m.mu.Unlock()

	s := NewServer(m, serve.Options{Workers: 2, BatchCap: 8})
	defer s.Close()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(31 + g))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := []float64{r.Float64() * 20, r.Float64() * 20}
				a, err := s.Assign(context.Background(), q)
				if err == nil && a.Epoch == 0 {
					t.Error("answer missing epoch stamp")
					return
				}
			}
		}(g)
	}
	r := rng.New(37)
	for i := 0; i < 400; i++ {
		var err error
		if i%3 == 2 && i > 10 {
			err = s.Delete(int64(7000 + i - 5))
			if err != nil {
				// The target may itself have been deleted; only insert
				// errors are fatal in this storm.
				err = nil
			}
		} else {
			err = s.Insert(int64(7000+i), []float64{r.Float64() * 20, r.Float64() * 20})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if m.Reconciles() == 0 {
		t.Fatal("storm never crossed the reconcile threshold")
	}
	if _, gen := s.Model(); gen < 2 {
		t.Fatalf("generation never advanced across reconcile swaps: %d", gen)
	}
}
