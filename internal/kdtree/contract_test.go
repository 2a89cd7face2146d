package kdtree_test

import (
	"slices"
	"sort"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/rng"
)

// The Index contract is shared by three implementations: the packed
// Tree, the BruteForce reference, and live.DeltaIndex (the mutable
// model's overlay scanner). The compile-time assertions here make sure
// the two local implementations cannot drift away from the interface
// (live asserts its own); TestIndexContractAgreement makes sure they
// cannot drift away from each other semantically, and
// TestRadiusLimitCaps pins the cap contract on all three.
var (
	_ kdtree.Index = (*kdtree.Tree)(nil)
	_ kdtree.Index = (*kdtree.BruteForce)(nil)
)

func contractDataset() *geom.Dataset {
	r := rng.New(99)
	const n, dim = 400, 3
	ds := geom.NewDataset(n, dim)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64() * 20
	}
	return ds
}

// TestIndexContractAgreement pins the observable contract — closed
// balls, self-inclusion, RadiusLimit a subset — on both local
// implementations over the same random data.
func TestIndexContractAgreement(t *testing.T) {
	ds := contractDataset()
	n := int32(ds.Len())
	impls := map[string]kdtree.Index{
		"tree":  kdtree.Build(ds),
		"brute": kdtree.NewBruteForce(ds),
	}
	for _, eps := range []float64{0.5, 2, 6} {
		want := map[int32][]int32{}
		for name, idx := range impls {
			for qi := int32(0); qi < n; qi += 37 {
				q := ds.At(qi)
				got := idx.Radius(q, eps, nil, nil)
				sorted := append([]int32(nil), got...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				self := false
				for _, nb := range sorted {
					if nb == qi {
						self = true
					}
					if geom.SqDist(q, ds.At(nb)) > eps*eps {
						t.Fatalf("%s eps=%g: reported %d outside the closed ball", name, eps, nb)
					}
				}
				if !self {
					t.Fatalf("%s eps=%g: query point %d missing from its own neighbourhood", name, eps, qi)
				}
				lim := idx.RadiusLimit(q, eps, 3, nil, nil)
				if len(sorted) >= 3 && len(lim) != 3 {
					t.Fatalf("%s eps=%g q=%d: RadiusLimit(3) returned %d", name, eps, qi, len(lim))
				}
				for _, nb := range lim {
					if geom.SqDist(q, ds.At(nb)) > eps*eps {
						t.Fatalf("%s eps=%g: RadiusLimit reported %d outside the ball", name, eps, nb)
					}
				}
				if prev, ok := want[qi]; ok {
					if len(prev) != len(sorted) {
						t.Fatalf("eps=%g q=%d: implementations disagree: %d vs %d neighbours", eps, qi, len(prev), len(sorted))
					}
					for i := range prev {
						if prev[i] != sorted[i] {
							t.Fatalf("eps=%g q=%d: implementations disagree at %d", eps, qi, i)
						}
					}
				} else {
					want[qi] = sorted
				}
			}
		}
	}
}

// TestRadiusLimitCaps pins the cap contract on all three
// implementations: a negative max is uncapped (the whole Radius
// neighbourhood), max 0 returns out unchanged, and a positive max
// counts only the neighbours appended after what out already holds
// (the huge eps puts every point in the ball, so the cap ends the scan
// mid-leaf). The DeltaIndex holds
// the same points as its overlay, inserted over a one-point base far
// from them.
func TestRadiusLimitCaps(t *testing.T) {
	ds := contractDataset()
	far := geom.NewDataset(1, ds.Dim)
	far.Set(0, []float64{-1000, -1000, -1000})
	m, err := live.NewModel(far, []int32{dbscan.Noise}, nil, dbscan.Params{Eps: 2, MinPts: 4},
		live.Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if err := m.Insert(int64(1+i), ds.At(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	g := m.Pin()
	defer g.Close()
	impls := []struct {
		name string
		idx  kdtree.Index
	}{
		{"tree", kdtree.Build(ds)},
		{"brute", kdtree.NewBruteForce(ds)},
		{"delta", g.Delta()},
	}
	prefix := []int32{-1, -2, -3, -4, -5}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			name, idx := impl.name, impl.idx
			for _, eps := range []float64{0.5, 2, 6, 1e9} {
				for qi := int32(0); qi < int32(ds.Len()); qi += 37 {
					q := ds.At(qi)
					want := idx.Radius(q, eps, nil, nil)
					if len(want) == 0 {
						t.Fatalf("%s eps=%g q=%d: empty neighbourhood around a stored point", name, eps, qi)
					}
					slices.Sort(want)
					got := idx.RadiusLimit(q, eps, -1, nil, nil)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s eps=%g q=%d: RadiusLimit(-1) returned %d of %d neighbours", name, eps, qi, len(got), len(want))
					}
					if got := idx.RadiusLimit(q, eps, 0, slices.Clone(prefix), nil); !slices.Equal(got, prefix) {
						t.Fatalf("%s eps=%g q=%d: RadiusLimit(0) changed out to %v", name, eps, qi, got)
					}
					got = idx.RadiusLimit(q, eps, 3, slices.Clone(prefix), nil)
					if !slices.Equal(got[:len(prefix)], prefix) || len(got) != len(prefix)+min(3, len(want)) {
						t.Fatalf("%s eps=%g q=%d: RadiusLimit(3) after a %d-entry prefix returned %d entries of %d neighbours",
							name, eps, qi, len(prefix), len(got), len(want))
					}
				}
			}
		})
	}
}
