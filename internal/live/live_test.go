package live_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

// testParams puts a 2-D uniform scatter in a regime with a healthy mix
// of clusters, borders and noise, so every invariant has teeth.
var testParams = dbscan.Params{Eps: 1.2, MinPts: 4}

func uniformDataset(n int, seed uint64) *geom.Dataset {
	r := rng.New(seed)
	ds := geom.NewDataset(n, 2)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 20
	}
	return ds
}

func newTestModel(t *testing.T, n int, seed uint64, opts live.Options) *live.Model {
	t.Helper()
	ds := uniformDataset(n, seed)
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, testParams)
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.NewModel(ds, res.Labels, tree, testParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scratchRun reruns offline DBSCAN on a pinned snapshot's survivors.
func scratchRun(t *testing.T, g *live.Guard) (*geom.Dataset, []int32, *kdtree.Tree, *dbscan.Result) {
	t.Helper()
	ds, labels := g.Survivors()
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, testParams)
	if err != nil {
		t.Fatal(err)
	}
	return ds, labels, tree, res
}

// survivorFlags collects the live model's core flags in survivor order
// (the order Survivors uses).
func survivorFlags(g *live.Guard) []bool {
	flags := make([]bool, 0, g.Live())
	for i := int32(0); int(i) < g.NumPoints(); i++ {
		if g.Deleted(i) {
			continue
		}
		flags = append(flags, g.Core(i))
	}
	return flags
}

// verifyOneSided checks the between-reconciles contract against a
// from-scratch run on the survivors: core flags exact, noise set
// exact, every scratch cluster's cores mapped into ONE live cluster
// (degradation is over-merge only — live may be coarser, never finer),
// and every live border attached to a cluster it can reach a live core
// of.
func verifyOneSided(t *testing.T, m *live.Model, ctx string) {
	t.Helper()
	g := m.Pin()
	defer g.Close()
	ds, liveLabels, tree, res := scratchRun(t, g)
	liveCore := survivorFlags(g)
	for i := range liveCore {
		if liveCore[i] != res.Core[i] {
			t.Fatalf("%s: core flag mismatch at survivor %d: live=%v scratch=%v",
				ctx, i, liveCore[i], res.Core[i])
		}
		if (liveLabels[i] == live.Noise) != (res.Labels[i] == dbscan.Noise) {
			t.Fatalf("%s: noise mismatch at survivor %d: live=%d scratch=%d",
				ctx, i, liveLabels[i], res.Labels[i])
		}
	}
	// Over-merge only: scratch-co-clustered cores are live-co-clustered.
	scratchToLive := make(map[int32]int32)
	for i := range liveCore {
		if !res.Core[i] {
			continue
		}
		if want, seen := scratchToLive[res.Labels[i]]; seen {
			if liveLabels[i] != want {
				t.Fatalf("%s: live SPLIT scratch cluster %d (live labels %d and %d)",
					ctx, res.Labels[i], want, liveLabels[i])
			}
		} else {
			scratchToLive[res.Labels[i]] = liveLabels[i]
		}
	}
	// Border validity within the live clustering itself.
	var nbrs []int32
	for i := range liveCore {
		if liveCore[i] || liveLabels[i] == live.Noise {
			continue
		}
		nbrs = tree.Radius(ds.At(int32(i)), testParams.Eps, nbrs[:0], nil)
		ok := false
		for _, nb := range nbrs {
			if liveCore[nb] && liveLabels[nb] == liveLabels[i] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: border survivor %d carries label %d but reaches no such live core",
				ctx, i, liveLabels[i])
		}
	}
}

// verifyExact checks full equivalence (insert-only and post-reconcile
// states): EquivCheck passes and ARI is at least minARI. Mid-stream
// checks pass a looser bound — borders may legitimately sit with a
// different reachable cluster than dbscan.Run's expansion order chose,
// and each such border moves ARI without breaking equivalence.
// Post-reconcile the labels come from the exact parallel engine, so
// the bound is essentially 1 (TestReconcileRestoresExactness also pins
// them byte for byte).
func verifyExact(t *testing.T, m *live.Model, ctx string, minARI float64) {
	t.Helper()
	g := m.Pin()
	defer g.Close()
	ds, liveLabels, tree, res := scratchRun(t, g)
	rep, err := eval.EquivCheck(ds, res, liveLabels, testParams, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact() {
		t.Fatalf("%s: not equivalent to from-scratch DBSCAN: %v", ctx, rep)
	}
	ari, err := eval.AdjustedRandIndex(liveLabels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < minARI {
		t.Fatalf("%s: ARI %.4f vs from-scratch run", ctx, ari)
	}
}

func TestInsertOnlyStaysExact(t *testing.T) {
	m := newTestModel(t, 200, 11, live.Options{MaxOverlay: -1, MaxDrift: -1})
	r := rng.New(12)
	for i := 0; i < 150; i++ {
		pt := []float64{r.Float64() * 20, r.Float64() * 20}
		if err := m.Insert(int64(1000+i), pt); err != nil {
			t.Fatal(err)
		}
		if (i+1)%30 == 0 {
			verifyExact(t, m, "after "+strconv.Itoa(i+1)+" inserts", 0.9)
		}
	}
	st := m.Stats()
	if st.Inserts != 150 || st.Live != 350 || st.Reconciles != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestMixedOpsDegradeOneSided(t *testing.T) {
	m := newTestModel(t, 300, 21, live.Options{MaxOverlay: -1, MaxDrift: -1})
	r := rng.New(22)
	liveIDs := make([]int64, 0, 600)
	for i := int64(0); i < 300; i++ {
		liveIDs = append(liveIDs, i)
	}
	nextID := int64(1000)
	for op := 0; op < 300; op++ {
		if r.Float64() < 0.4 && len(liveIDs) > 50 {
			i := r.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			if err := m.Delete(id); err != nil {
				t.Fatal(err)
			}
		} else {
			pt := []float64{r.Float64() * 20, r.Float64() * 20}
			if err := m.Insert(nextID, pt); err != nil {
				t.Fatal(err)
			}
			liveIDs = append(liveIDs, nextID)
			nextID++
		}
		if (op+1)%60 == 0 {
			verifyOneSided(t, m, "after "+strconv.Itoa(op+1)+" mixed ops")
		}
	}
	if st := m.Stats(); st.Deletes == 0 || st.Inserts == 0 {
		t.Fatalf("workload degenerate: %+v", st)
	}
}

func TestReconcileRestoresExactness(t *testing.T) {
	m := newTestModel(t, 300, 31, live.Options{MaxOverlay: -1, MaxDrift: -1})
	r := rng.New(32)
	for i := 0; i < 120; i++ {
		if i%3 == 2 {
			if err := m.Delete(int64(r.Intn(300))); err != nil {
				// Already deleted — pick the next op instead.
				continue
			}
		} else if err := m.Insert(int64(1000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.ReconcileNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != m.Stats().Live || st.Drift <= 0 {
		t.Fatalf("suspicious reconcile stats: %+v", st)
	}
	verifyExact(t, m, "post-reconcile", 0.9999)
	g := m.Pin()
	_, labels, _, res := scratchRun(t, g)
	g.Close()
	if !slices.Equal(labels, res.Labels) {
		t.Fatal("post-reconcile labels differ from a from-scratch dbscan.Run of the survivors")
	}
	if s := m.Stats(); s.Overlay != 0 || s.Tombstones != 0 || s.MutationsSinceBase != 0 {
		t.Fatalf("reconcile did not reset the overlay: %+v", s)
	}
}

// TestLiveProperty is the seeded end-to-end property: any insert/delete
// sequence keeps the one-sided invariants, and reconciliation lands on
// from-scratch DBSCAN exactly. Override the seed list with LIVE_SEED.
func TestLiveProperty(t *testing.T) {
	seeds := []uint64{3, 77}
	if env := os.Getenv("LIVE_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad LIVE_SEED %q: %v", env, err)
		}
		seeds = []uint64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			m := newTestModel(t, 250, seed, live.Options{MaxOverlay: -1, MaxDrift: -1})
			r := rng.New(seed ^ 0x9e3779b97f4a7c15)
			liveIDs := make([]int64, 0, 800)
			for i := int64(0); i < 250; i++ {
				liveIDs = append(liveIDs, i)
			}
			nextID := int64(10_000)
			for op := 0; op < 400; op++ {
				if r.Float64() < 0.4 && len(liveIDs) > 20 {
					i := r.Intn(len(liveIDs))
					id := liveIDs[i]
					liveIDs[i] = liveIDs[len(liveIDs)-1]
					liveIDs = liveIDs[:len(liveIDs)-1]
					if err := m.Delete(id); err != nil {
						t.Fatal(err)
					}
				} else {
					pt := []float64{r.Float64() * 20, r.Float64() * 20}
					if err := m.Insert(nextID, pt); err != nil {
						t.Fatal(err)
					}
					liveIDs = append(liveIDs, nextID)
					nextID++
				}
				if (op+1)%80 == 0 {
					verifyOneSided(t, m, "op "+strconv.Itoa(op+1))
				}
			}
			if _, err := m.ReconcileNow(); err != nil {
				t.Fatal(err)
			}
			verifyExact(t, m, "post-reconcile", 0.9999)
		})
	}
}

func TestAutoReconcileOnThreshold(t *testing.T) {
	m := newTestModel(t, 200, 41, live.Options{MaxOverlay: 32, MaxDrift: -1})
	r := rng.New(42)
	for i := 0; i < 80; i++ {
		if err := m.Insert(int64(1000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Reconciles == 0 {
		t.Fatalf("no auto-reconcile after 80 inserts with MaxOverlay=32: %+v", st)
	}
	if st.Overlay > 33 {
		t.Fatalf("overlay exceeded threshold: %+v", st)
	}
	if st.Live != 280 {
		t.Fatalf("points lost across reconcile: %+v", st)
	}
	verifyOneSided(t, m, "post-auto-reconcile")
}

func TestDriftTrigger(t *testing.T) {
	m := newTestModel(t, 100, 43, live.Options{MaxOverlay: -1, MaxDrift: 0.1})
	r := rng.New(44)
	for i := 0; i < 30; i++ {
		if err := m.Insert(int64(1000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Reconciles == 0 || st.Drift > 0.11 {
		t.Fatalf("drift trigger did not fire: %+v", st)
	}
}

func TestMutationErrors(t *testing.T) {
	m := newTestModel(t, 50, 51, live.Options{})
	if err := m.Insert(3, []float64{1, 2}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := m.Insert(1000, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if err := m.Delete(9999); err == nil {
		t.Fatal("unknown delete accepted")
	}
	if err := m.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(7); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestInsertRejectsNonFinite: an insert with a NaN or ±Inf coordinate
// is an error naming the coordinate, and it publishes no epoch.
func TestInsertRejectsNonFinite(t *testing.T) {
	m := newTestModel(t, 50, 51, live.Options{})
	epoch := m.Epoch()
	for _, tc := range []struct {
		name  string
		p     []float64
		coord int
	}{
		{"nan", []float64{math.NaN(), 1}, 0},
		{"+inf", []float64{1, math.Inf(1)}, 1},
		{"-inf", []float64{math.Inf(-1), 1}, 0},
	} {
		want := fmt.Sprintf("coordinate %d", tc.coord)
		if err := m.Insert(1000, tc.p); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Insert error %v, want %q", tc.name, err, want)
		}
	}
	if got := m.Epoch(); got != epoch {
		t.Fatalf("rejected inserts moved the epoch %d -> %d", epoch, got)
	}
}

// TestGuardSnapshotIsolation holds one epoch while an insert storm and
// a reconcile replace every chunk it reads, then collects garbage
// twice: a held epoch belongs to its Guard, so the collector must leave
// its labels intact.
func TestGuardSnapshotIsolation(t *testing.T) {
	m := newTestModel(t, 150, 61, live.Options{MaxOverlay: -1, MaxDrift: -1})
	g0 := m.Pin()
	defer g0.Close()
	e0 := g0.Epoch()
	before := make([]int32, g0.NumPoints())
	for i := range before {
		before[i] = g0.Label(int32(i))
	}
	r := rng.New(62)
	for i := 0; i < 60; i++ {
		if err := m.Insert(int64(1000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ReconcileNow(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if g0.Epoch() != e0 {
		t.Fatal("pinned epoch changed identity")
	}
	for i := range before {
		if got := g0.Label(int32(i)); got != before[i] {
			t.Fatalf("pinned snapshot mutated: point %d label %d -> %d", i, before[i], got)
		}
	}
	g1 := m.Pin()
	defer g1.Close()
	if g1.Epoch() <= e0 {
		t.Fatalf("epoch did not advance: %d -> %d", e0, g1.Epoch())
	}
}

// TestDeltaIndexContract checks the published overlay index against a
// brute-force scan of the pinned epoch: the same hits in ascending
// global index, for query eps below, at and 2.5x above the model's,
// over duplicate points, pairs exactly eps apart on cell walls (eps is
// dyadic there and the base's lower corner is a point, so walls sit at
// exact multiples of eps), coordinates offset by ±1e9, and d=1 and 16.
func TestDeltaIndexContract(t *testing.T) {
	for _, c := range []struct {
		name   string
		dim    int
		eps    float64 // the model's
		offset float64
		extent float64
	}{
		{"d2", 2, testParams.Eps, 0, 20},
		{"d1", 1, 1.25, 0, 40},
		{"d16", 16, 1.25, 0, 2.5},
		{"offset-1e9", 2, 1.25, -1e9, 20},
		{"offset+1e9", 3, 1.25, 1e9, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(71)
			point := func() []float64 {
				p := make([]float64, c.dim)
				for j := range p {
					p[j] = c.offset + r.Float64()*c.extent
				}
				return p
			}
			const baseN = 100
			ds := geom.NewDataset(baseN, c.dim)
			pts := [][]float64{make([]float64, c.dim)}
			for j := range pts[0] {
				pts[0][j] = c.offset
			}
			for len(pts) < baseN {
				pts = append(pts, point())
			}
			for i, p := range pts {
				ds.Set(int32(i), p)
			}
			p := dbscan.Params{Eps: c.eps, MinPts: testParams.MinPts}
			tree := kdtree.Build(ds)
			res, err := dbscan.Run(ds, tree, p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := live.NewModel(ds, res.Labels, tree, p, live.Options{MaxOverlay: -1, MaxDrift: -1})
			if err != nil {
				t.Fatal(err)
			}

			var queries [][]float64
			id := int64(1000)
			insert := func(p []float64) {
				if err := m.Insert(id, p); err != nil {
					t.Fatal(err)
				}
				id++
				pts = append(pts, p)
			}
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 1:
					insert(slices.Clone(pts[r.Intn(len(pts))])) // duplicate
				case 2:
					a := point()
					ax := r.Intn(c.dim)
					k := math.Floor((a[ax] - c.offset) / c.eps)
					a[ax] = c.offset + k*c.eps
					b := slices.Clone(a)
					b[ax] = c.offset + (k+1)*c.eps
					insert(a)
					insert(b)
					queries = append(queries, a, b)
				default:
					insert(point())
				}
			}
			for i := 0; i < 20; i++ {
				if err := m.Delete(int64(1000 + i*3)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				queries = append(queries, point())
			}

			g := m.Pin()
			defer g.Close()
			delta := g.Delta()
			for _, eps := range []float64{c.eps / 2, c.eps, 2.5 * c.eps} {
				for qi, q := range queries {
					var want []int32
					for i := int32(baseN); int(i) < g.NumPoints(); i++ {
						if !g.Deleted(i) && geom.SqDistD(q, g.At(i)) <= eps*eps {
							want = append(want, i)
						}
					}
					if got := delta.Radius(q, eps, nil, nil); !slices.Equal(got, want) {
						t.Fatalf("eps %g query %d: delta %v, manual scan %v", eps, qi, got, want)
					}
					if got := delta.RadiusLimit(q, eps, -1, nil, nil); !slices.Equal(got, want) {
						t.Fatalf("eps %g query %d: uncapped RadiusLimit %v, manual scan %v", eps, qi, got, want)
					}
					lim := delta.RadiusLimit(q, eps, 2, nil, nil)
					if len(lim) != min(2, len(want)) {
						t.Fatalf("eps %g query %d: RadiusLimit(2) returned %d of %d", eps, qi, len(lim), len(want))
					}
					for _, nb := range lim {
						if !slices.Contains(want, nb) {
							t.Fatalf("eps %g query %d: RadiusLimit reported non-neighbour %d", eps, qi, nb)
						}
					}
				}
			}
		})
	}
}

func TestDeleteToEmptyAndBack(t *testing.T) {
	m := newTestModel(t, 10, 81, live.Options{MaxOverlay: -1, MaxDrift: -1})
	for i := int64(0); i < 10; i++ {
		if err := m.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Live != 0 {
		t.Fatalf("live count wrong: %+v", st)
	}
	if _, err := m.ReconcileNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := m.Insert(int64(100+i), []float64{float64(i % 3), float64(i) / 3}); err != nil {
			t.Fatal(err)
		}
	}
	verifyExact(t, m, "rebuilt from empty", 0.9)
}

// TestServingMatchesFrozen pins that an unmutated live model answers
// exactly like the frozen serve.Model over the same clustering.
func TestServingMatchesFrozen(t *testing.T) {
	ds := uniformDataset(200, 91)
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, testParams)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := serve.Freeze(ds, res.Labels, res.Core, tree, testParams)
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.NewModel(ds, res.Labels, tree, testParams, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv := m.Serving()
	if sv.Dim() != frozen.Dim() {
		t.Fatal("dim mismatch")
	}
	r := rng.New(92)
	for i := 0; i < 200; i++ {
		q := []float64{r.Float64() * 20, r.Float64() * 20}
		want := frozen.Assign(q)
		got := sv.Assign(q)
		if got.Cluster != want.Cluster || got.Core != want.Core {
			t.Fatalf("query %d: live (%d,%v) != frozen (%d,%v)",
				i, got.Cluster, got.Core, want.Cluster, want.Core)
		}
		if got.Epoch == 0 {
			t.Fatal("live answer missing epoch stamp")
		}
	}
}

// TestServingAssignAllocs: an answer through the serve.Snapshot adapter
// allocates nothing, even when the neighbourhood spans base and overlay
// points: the epoch is one atomic load and the neighbour list stays on
// the stack.
func TestServingAssignAllocs(t *testing.T) {
	m := newTestModel(t, 400, 97, live.Options{MaxOverlay: -1, MaxDrift: -1})
	r := rng.New(98)
	for i := 0; i < 60; i++ {
		if err := m.Insert(int64(1000+i), []float64{10 + r.Float64() - 0.5, 10 + r.Float64() - 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	g := m.Pin()
	q := []float64{10, 10}
	if n := len(g.Delta().Radius(q, testParams.Eps, nil, nil)); n < testParams.MinPts {
		t.Fatalf("query reaches only %d overlay points", n)
	}
	g.Close()
	sv := m.Serving()
	if allocs := testing.AllocsPerRun(200, func() { sv.Assign(q) }); allocs != 0 {
		t.Fatalf("Serving().Assign allocates %v times per query, want 0", allocs)
	}
}

func TestServerWritePath(t *testing.T) {
	m := newTestModel(t, 200, 95, live.Options{MaxOverlay: 64, MaxDrift: -1})
	s := live.NewServer(m, serve.Options{Workers: 2, BatchCap: 8})
	defer s.Close()
	r := rng.New(96)
	for i := 0; i < 100; i++ {
		if err := s.Insert(int64(1000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := s.Delete(int64(1000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats(); got.Inserts != 100 || got.Deletes != 20 {
		t.Fatalf("writes lost: %+v", got)
	}
	if m.Reconciles() == 0 {
		t.Fatal("expected an auto-reconcile at MaxOverlay=64")
	}
	if _, gen := s.Model(); gen != 1+m.Reconciles() {
		t.Fatalf("serving generation %d after %d reconciles, want one swap each", gen, m.Reconciles())
	}
	g := m.Pin()
	q := append([]float64(nil), g.At(5)...)
	g.Close()
	a, err := s.Assign(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch == 0 {
		t.Fatal("served answer missing epoch")
	}
	if err := s.Insert(3, []float64{0, 0}); err == nil {
		t.Fatal("duplicate id accepted through server")
	}

	// A closed or drained server refuses writes and leaves the model
	// untouched.
	s.Close()
	checkWritesRefused(t, "Close", s, m)
	drained := live.NewServer(m, serve.Options{Workers: 1})
	drained.Drain(time.Second)
	checkWritesRefused(t, "Drain", drained, m)
}

func checkWritesRefused(t *testing.T, after string, s *live.Server, m *live.Model) {
	t.Helper()
	before := m.Stats()
	if err := s.Insert(5000, []float64{1, 1}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Insert after %s: %v, want ErrClosed", after, err)
	}
	if err := s.Delete(5); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Delete after %s: %v, want ErrClosed", after, err)
	}
	if got := m.Stats(); got != before {
		t.Fatalf("writes after %s changed the model: %+v -> %+v", after, before, got)
	}
}
