package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// TestLocalDBSCANNeighborBufferReuse locks in the invariant documented
// in LocalDBSCAN: the single reusable neighbour buffer is overwritten
// in place by every query, so all reads of a query result must happen
// before the next query — while the BFS frontier, which outlives many
// queries, must hold copies. The workload is built to make any aliasing
// slip corrupt the output: long chains where each expansion query
// overwrites the buffer dozens of hops before the frontier entries
// pushed from it are drained. With one partition there are no foreign
// points, so LocalDBSCAN must reproduce plain sequential DBSCAN's
// clusters exactly.
func TestLocalDBSCANNeighborBufferReuse(t *testing.T) {
	// Two chains of 400 points each, spaced 10 apart along x with
	// eps=25: every neighbourhood is the 5-point window around a point
	// (= minPts), so each cluster is only reachable through ~200
	// successive expansion queries. The chains are 1e6 apart in y, and
	// three isolated points stay noise.
	const (
		chainLen = 400
		spacing  = 10.0
	)
	n := 2*chainLen + 3
	ds := geom.NewDataset(n, 2)
	for c := 0; c < 2; c++ {
		for i := 0; i < chainLen; i++ {
			p := c*chainLen + i
			ds.Coords[2*p] = float64(i) * spacing
			ds.Coords[2*p+1] = float64(c) * 1e6
		}
	}
	for i := 0; i < 3; i++ {
		p := 2*chainLen + i
		ds.Coords[2*p] = float64(i) * 1e4
		ds.Coords[2*p+1] = 5e5
	}

	params := dbscan.Params{Eps: 25, MinPts: 5}
	tree := kdtree.Build(ds)
	ref, err := dbscan.Run(ds, tree, params)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumClusters != 2 || ref.NumNoise != 3 {
		t.Fatalf("reference run found %d clusters, %d noise; want 2, 3",
			ref.NumClusters, ref.NumNoise)
	}

	part, err := NewPartitioner(ds.Len(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxNeighbors := range []int{0, 5} {
		lr, err := LocalDBSCAN(ds, tree, part, 0, LocalOptions{
			Params:       params,
			SeedMode:     SeedSingle,
			MaxNeighbors: maxNeighbors,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Clusters) != ref.NumClusters {
			t.Fatalf("maxNeighbors=%d: got %d partial clusters, want %d",
				maxNeighbors, len(lr.Clusters), ref.NumClusters)
		}
		for _, pc := range lr.Clusters {
			if len(pc.Seeds) != 0 {
				t.Fatalf("maxNeighbors=%d: single-partition run placed seeds: %v",
					maxNeighbors, pc.Seeds)
			}
			// Every member must carry the same reference label, and the
			// member set must be that label's full cluster.
			want := ref.Labels[pc.Members[0]]
			got := append([]int32(nil), pc.Members...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			var exp []int32
			for p, l := range ref.Labels {
				if l == want {
					exp = append(exp, int32(p))
				}
			}
			if len(got) != len(exp) {
				t.Fatalf("maxNeighbors=%d: cluster %d has %d members, want %d",
					maxNeighbors, want, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("maxNeighbors=%d: cluster %d member %d is %d, want %d",
						maxNeighbors, want, i, got[i], exp[i])
				}
			}
		}
	}
}

// blockTestDataset draws n points in d dimensions on an integer grid:
// three blobs jittered by at most one unit per axis, every tenth point
// scattered and every seventh a duplicate of the point before it. With
// integer eps, duplicates and pairs at exactly eps are common.
func blockTestDataset(n, d int, seed uint64) *geom.Dataset {
	r := rng.New(seed)
	centres := make([][]float64, 3)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = float64(r.Intn(12))
		}
	}
	ds := geom.NewDataset(n, d)
	for i := int32(0); i < int32(n); i++ {
		p := ds.At(i)
		switch {
		case i%7 == 6:
			copy(p, ds.At(i-1))
		case i%10 == 9:
			for j := range p {
				p[j] = float64(r.Intn(14))
			}
		default:
			c := centres[r.Intn(len(centres))]
			for j := range p {
				p[j] = c[j] + float64(r.Intn(3)-1)
			}
		}
	}
	return ds
}

// comparePartials requires got to hold want's partial clusters, each
// with the same Seq and the same Members, Seeds and Borders as sets,
// and the same local noise.
func comparePartials(t *testing.T, what string, want, got *LocalResult) {
	t.Helper()
	if got.LocalNoise != want.LocalNoise || len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("%s: %d partials, noise %d; want %d partials, noise %d",
			what, len(got.Clusters), got.LocalNoise, len(want.Clusters), want.LocalNoise)
	}
	sorted := func(s []int32) []int32 {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	for i, w := range want.Clusters {
		g := got.Clusters[i]
		if g.Seq != w.Seq || g.Partition != w.Partition ||
			!slices.Equal(sorted(g.Members), sorted(w.Members)) ||
			!slices.Equal(sorted(g.Seeds), sorted(w.Seeds)) ||
			!slices.Equal(sorted(g.Borders), sorted(w.Borders)) {
			t.Fatalf("%s: partial %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestBlockTableMatchesPerPoint: the exact pair's block pass — owned
// points answered in RadiusBlock blocks from a leaf-ordered tree (range)
// or a cell tree (cell) — leaves the partial clusters that one
// BruteForce query per point leaves. The grid covers duplicates, pairs
// at exactly eps, n < minPts, partitions smaller than one block, minPts
// 1 and d = 33, which takes the tree's float64 path.
func TestBlockTableMatchesPerPoint(t *testing.T) {
	epsFor := map[int][]float64{1: {1, 2}, 10: {3, 4}, 33: {6, 7}}
	var blockNodes, pointNodes int64
	haloCells := 0
	for _, d := range []int{1, 10, 33} {
		for _, n := range []int{3, 25, 300} {
			ds := blockTestDataset(n, d, uint64(d*1000+n))
			lds, ltree := kdtree.Build(ds).LeafOrdered()
			for _, eps := range epsFor[d] {
				for _, minPts := range []int{1, 4, 10} {
					opts := LocalOptions{Params: dbscan.Params{Eps: eps, MinPts: minPts}, SeedMode: SeedExact}
					for _, parts := range []int{1, 4} {
						part, err := NewPartitioner(n, parts)
						if err != nil {
							t.Fatal(err)
						}
						for s := 0; s < parts; s++ {
							what := fmt.Sprintf("range d=%d n=%d eps=%g minPts=%d split %d/%d", d, n, eps, minPts, s, parts)
							block, err := LocalDBSCAN(lds, ltree, part, s, opts)
							if err != nil {
								t.Fatal(err)
							}
							want, err := LocalDBSCAN(lds, kdtree.NewBruteForce(lds), part, s, opts)
							if err != nil {
								t.Fatal(err)
							}
							comparePartials(t, what, want, block)
							if n == 300 && parts == 1 {
								lo, hi := part.Range(s)
								point := &LocalResult{Partition: s}
								clusterRange(lds, ltree, lo, hi, part, opts, point, nil, nil)
								comparePartials(t, what+" (per-point tree)", point, block)
								blockNodes += block.Stats.NodesVisited
								pointNodes += point.Stats.NodesVisited
							}
						}
					}

					cells := slabCells(ds, eps, 2*eps)
					tab := new(neighborTable)
					for ci, cell := range cells {
						if len(cell.halo) > 0 {
							haloCells++
						}
						what := fmt.Sprintf("cell d=%d n=%d eps=%g minPts=%d cell %d/%d", d, n, eps, minPts, ci, len(cells))
						block, err := cellLocalDBSCAN(ds, cell, int32(ci), opts, tab)
						if err != nil {
							t.Fatal(err)
						}
						comparePartials(t, what, perPointCell(ds, cell, int32(ci), opts), block)
					}
				}
			}
		}
	}
	// The block pass ran: its shared descents visit far fewer nodes.
	if blockNodes*2 > pointNodes {
		t.Fatalf("block pass visited %d nodes, per-point queries %d: not the block path", blockNodes, pointNodes)
	}
	if haloCells == 0 {
		t.Fatal("no cell received a halo")
	}
}

// slabCells cuts ds into slabs of the given width along axis 0, in
// ascending order: a slab's home points are the points in it, its halo
// every other point within eps of one of them, both ascending.
func slabCells(ds *geom.Dataset, eps, width float64) []cellInput {
	slab := func(i int32) int { return int(ds.At(i)[0] / width) }
	last := 0
	for i := int32(0); i < int32(ds.Len()); i++ {
		last = max(last, slab(i))
	}
	bf := kdtree.NewBruteForce(ds)
	var cells []cellInput
	for s := 0; s <= last; s++ {
		var cell cellInput
		halo := make([]bool, ds.Len())
		for i := int32(0); i < int32(ds.Len()); i++ {
			if slab(i) != s {
				continue
			}
			cell.home = append(cell.home, i)
			for _, nb := range bf.Radius(ds.At(i), eps, nil, nil) {
				halo[nb] = slab(nb) != s
			}
		}
		for i, h := range halo {
			if h {
				cell.halo = append(cell.halo, int32(i))
			}
		}
		if len(cell.home) > 0 {
			cells = append(cells, cell)
		}
	}
	return cells
}

// perPointCell is cellLocalDBSCAN with one BruteForce query per home
// point over the same local dataset.
func perPointCell(ds *geom.Dataset, cell cellInput, rank int32, opts LocalOptions) *LocalResult {
	ids := append(append([]int32(nil), cell.home...), cell.halo...)
	local := geom.NewDataset(len(ids), ds.Dim)
	for k, gi := range ids {
		local.Set(int32(k), ds.At(gi))
	}
	res := &LocalResult{Partition: int(rank)}
	clusterRange(local, kdtree.NewBruteForce(local), 0, int32(len(cell.home)), Partitioner{}, opts, res, nil, nil)
	mapIDs(res.Clusters, ids)
	return res
}
