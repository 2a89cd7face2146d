package live

import (
	"testing"

	"sparkdbscan/internal/rng"
)

// checkBaseCounts asserts that the writer's neighbour counts over a
// freshly built base (no overlay, no tombstones) equal one Radius
// neighbourhood size per base point, and that the core flags follow from them.
func checkBaseCounts(t *testing.T, m *Model, ctx string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.counts) != m.base.n {
		t.Fatalf("%s: %d counts for %d base points", ctx, len(m.counts), m.base.n)
	}
	var nbrs []int32
	for i := int32(0); int(i) < m.base.n; i++ {
		nbrs = m.base.tree.Radius(m.base.ds.At(i), m.p.Eps, nbrs[:0], nil)
		want := len(nbrs)
		if int(m.counts[i]) != want {
			t.Fatalf("%s: point %d count %d, Radius reported %d", ctx, i, m.counts[i], want)
		}
		if m.core[i] != (want >= m.p.MinPts) {
			t.Fatalf("%s: point %d core flag %v with count %d", ctx, i, m.core[i], want)
		}
	}
}

func TestNeighbourCountsAfterNewModelAndReconcile(t *testing.T) {
	m := stressModel(t, 1500, 41)
	checkBaseCounts(t, m, "NewModel")
	r := rng.New(42)
	for i := 0; i < 400; i++ {
		if i%3 == 2 {
			_ = m.Delete(int64(r.Intn(1500))) // an id already deleted is skipped
			continue
		}
		if err := m.Insert(int64(10_000+i), []float64{r.Float64() * 20, r.Float64() * 20}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ReconcileNow(); err != nil {
		t.Fatal(err)
	}
	checkBaseCounts(t, m, "ReconcileNow")
}
