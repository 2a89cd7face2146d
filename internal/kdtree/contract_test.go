package kdtree_test

import (
	"fmt"
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

// TestLeafOrderedAnswersMapThroughOrder pins LeafOrdered's contract:
// the leaf-ordered tree answers every Radius, RadiusLimit, RadiusBlock
// and MinKey query as the original tree does, with id k standing for
// Order()[k], in the same order and with the same SearchStats. The
// sizes end the last leaf at every pad offset of the 8-lane kernel;
// d = 40 takes the exact float64 path. Coordinates on a half-integer
// grid put duplicates and pairs at exactly eps in the larger datasets.
func TestLeafOrderedAnswersMapThroughOrder(t *testing.T) {
	var blk, lblk kdtree.Block
	for _, dim := range []int{3, 40} {
		for _, n := range []int{0, 1, 7, 8, 9, 1003} {
			for _, leaf := range []int{3, 128} {
				r := rng.New(uint64(n*dim + leaf))
				ds := geom.NewDataset(n, dim)
				for i := range ds.Coords {
					ds.Coords[i] = float64(r.Intn(10)) / 2
				}
				tree := kdtree.BuildLeafSize(ds, leaf)
				lds, ltree := tree.LeafOrdered()
				order := tree.Order()
				name := fmt.Sprintf("d=%d/n=%d/leaf=%d", dim, n, leaf)
				if lds.Len() != n || ltree.Size() != n {
					t.Fatalf("%s: leaf-ordered dataset %d points, tree %d", name, lds.Len(), ltree.Size())
				}
				for k, p := range order {
					if !slices.Equal(lds.At(int32(k)), ds.At(p)) || ltree.Order()[k] != int32(k) {
						t.Fatalf("%s: position %d does not hold point %d", name, k, p)
					}
				}
				mapped := func(ids []int32) []int32 {
					out := make([]int32, len(ids))
					for i, k := range ids {
						out[i] = order[k]
					}
					return out
				}
				keys := make([]int32, n)
				lkeys := make([]int32, n)
				for i := range keys {
					keys[i] = kdtree.NoKey
					if r.Intn(3) > 0 {
						keys[i] = int32(r.Intn(n))
					}
				}
				for k, p := range order {
					lkeys[k] = keys[p]
				}
				mins, lmins := tree.KeyMins(keys), ltree.KeyMins(lkeys)

				queries := [][]float64{make([]float64, dim)}
				for qi := 0; qi < n; qi += 1 + n/32 {
					q := slices.Clone(ds.At(int32(qi)))
					queries = append(queries, q, slices.Clone(q))
					for j := range q {
						q[j] += 0.25
					}
				}
				epsList := []float64{1, 2.5}
				if dim == 40 {
					epsList = []float64{9, 12}
				}
				for _, eps := range epsList {
					for qi, q := range queries {
						for _, max := range []int{-1, 3} {
							var st, lst kdtree.SearchStats
							want := tree.RadiusLimit(q, eps, max, nil, &st)
							got := mapped(ltree.RadiusLimit(q, eps, max, nil, &lst))
							if !slices.Equal(got, want) || st != lst {
								t.Fatalf("%s eps=%g q=%d max=%d: leaf-ordered %v %+v, original %v %+v",
									name, eps, qi, max, got, lst, want, st)
							}
						}
						var st, lst kdtree.SearchStats
						want := tree.Radius(q, eps, nil, &st)
						if got := mapped(ltree.Radius(q, eps, nil, &lst)); !slices.Equal(got, want) || st != lst {
							t.Fatalf("%s eps=%g q=%d: Radius leaf-ordered %v %+v, original %v %+v",
								name, eps, qi, got, lst, want, st)
						}
						for _, limit := range []int{1, 4, n + 1} {
							var st, lst kdtree.SearchStats
							key, count := tree.MinKey(q, eps, keys, mins, limit, &st)
							lkey, lcount := ltree.MinKey(q, eps, lkeys, lmins, limit, &lst)
							if key != lkey || count != lcount || st != lst {
								t.Fatalf("%s eps=%g q=%d limit=%d: MinKey leaf-ordered (%d, %d) %+v, original (%d, %d) %+v",
									name, eps, qi, limit, lkey, lcount, lst, key, count, st)
							}
						}
					}
					// The first, a middle and the last block, which ends
					// in the last leaf's pad slots.
					for _, lo := range []int{0, n / 2, max(n-kdtree.BlockSize, 0)} {
						hi := min(lo+kdtree.BlockSize, n)
						pos := make([]int32, hi-lo)
						for i := range pos {
							pos[i] = int32(lo + i)
						}
						var st, lst kdtree.SearchStats
						tree.RadiusBlock(order[lo:hi], eps, &blk, &st)
						ltree.RadiusBlock(pos, eps, &lblk, &lst)
						if st != lst {
							t.Fatalf("%s eps=%g block %d: stats leaf-ordered %+v, original %+v", name, eps, lo, lst, st)
						}
						for k := range pos {
							if got, want := mapped(lblk.Neighbors(k)), blk.Neighbors(k); !slices.Equal(got, want) {
								t.Fatalf("%s eps=%g block %d query %d: leaf-ordered %v, original %v", name, eps, lo, k, got, want)
							}
						}
					}
				}
			}
		}
	}
}
