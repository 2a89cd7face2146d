package serve

import (
	"fmt"
	"math"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// classify is the serving rule stated over a neighbour set: the query
// joins the lowest labelled core point among nbrs, and is itself core
// when |nbrs|+1 >= minPts. Fed kdtree.BruteForce.Radius it is the
// reference the model's single-descent answers are pinned to.
func classify(nbrs, labels []int32, core []bool, minPts int) Assignment {
	a := Assignment{Cluster: Noise, Core: len(nbrs)+1 >= minPts}
	for _, nb := range nbrs {
		if l := labels[nb]; core[nb] && l >= 0 && (a.Cluster == Noise || l < a.Cluster) {
			a.Cluster = l
		}
	}
	return a
}

// checkOracle freezes (ds, labels, core) and requires Assign and one
// AssignBatch over all queries to equal classify over the
// brute-force neighbourhood, query by query.
func checkOracle(t *testing.T, ds *geom.Dataset, labels []int32, core []bool, p dbscan.Params, queries [][]float64) {
	t.Helper()
	m, err := Freeze(ds, labels, core, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	bf := kdtree.NewBruteForce(ds)
	flat := make([]float64, 0, len(queries)*ds.Dim)
	for _, q := range queries {
		flat = append(flat, q...)
	}
	batch := make([]Assignment, len(queries))
	m.AssignBatch(flat, batch)
	for i, q := range queries {
		want := classify(bf.Radius(q, p.Eps, nil, nil), labels, core, p.MinPts)
		if got := m.Assign(q); got != want {
			t.Fatalf("query %d %v: Assign %+v, brute force %+v", i, q, got, want)
		}
		if batch[i] != want {
			t.Fatalf("query %d %v: AssignBatch %+v, brute force %+v", i, q, batch[i], want)
		}
	}
}

// dbscanLabels clusters ds sequentially: the labels and core flags a
// real Freeze receives.
func dbscanLabels(t *testing.T, ds *geom.Dataset, p dbscan.Params) ([]int32, []bool) {
	t.Helper()
	res, err := dbscan.Run(ds, kdtree.NewBruteForce(ds), p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Labels, res.Core
}

// probeQueries returns queries around ds: data points, points jittered
// by up to eps, points exactly eps from a data point (along an axis and
// along a random direction, so SqDistD lands on either side of eps²
// by rounding), and points far outside the data.
func probeQueries(ds *geom.Dataset, eps float64, n int, seed uint64) [][]float64 {
	r := rng.New(seed)
	qs := make([][]float64, 0, n)
	for len(qs) < n {
		q := append([]float64(nil), ds.At(int32(r.Intn(ds.Len())))...)
		switch len(qs) % 5 {
		case 1:
			for j := range q {
				q[j] += (2*r.Float64() - 1) * eps
			}
		case 2:
			q[r.Intn(len(q))] += eps
		case 3:
			dir := make([]float64, len(q))
			var norm float64
			for j := range dir {
				dir[j] = r.NormFloat64()
				norm += dir[j] * dir[j]
			}
			norm = math.Sqrt(norm)
			for j := range q {
				q[j] += eps * dir[j] / norm
			}
		case 4:
			q[0] += 1e6
		}
		qs = append(qs, q)
	}
	return qs
}

// TestAssignMatchesBruteForceOracle pins every assignment entry to
// classify over BruteForce.Radius on both distance paths (d=10 runs
// the float32 kernel, d=33 and d=128 the float64 rows), on duplicate
// points, queries exactly eps from data, tight clusters the descent
// includes whole, queries far outside the data, and arbitrary label
// and core assignments that no DBSCAN run would produce.
func TestAssignMatchesBruteForceOracle(t *testing.T) {
	for _, dim := range []int{10, 33, 128} {
		eps := 2 * math.Sqrt(float64(dim))
		p := dbscan.Params{Eps: eps, MinPts: 6}
		t.Run(fmt.Sprintf("clustered/d%d", dim), func(t *testing.T) {
			ds := clusteredDS(uint64(dim), 600, dim, 5, 1.2)
			labels, core := dbscanLabels(t, ds, p)
			checkOracle(t, ds, labels, core, p, probeQueries(ds, eps, 300, uint64(dim)+1))
		})
		t.Run(fmt.Sprintf("duplicates/d%d", dim), func(t *testing.T) {
			// Every point appears four times; the copies sit in one leaf
			// or straddle leaves, and each copy is at distance 0.
			base := clusteredDS(uint64(dim)+2, 150, dim, 3, 1.2)
			ds := geom.NewDataset(4*base.Len(), dim)
			for i := 0; i < ds.Len(); i++ {
				ds.Set(int32(i), base.At(int32(i%base.Len())))
			}
			labels, core := dbscanLabels(t, ds, p)
			checkOracle(t, ds, labels, core, p, probeQueries(ds, eps, 300, uint64(dim)+3))
		})
		t.Run(fmt.Sprintf("tight/d%d", dim), func(t *testing.T) {
			// Clusters far narrower than eps: whole subtrees lie inside
			// the ball and are counted without a distance.
			ds := clusteredDS(uint64(dim)+4, 2000, dim, 4, 0.01*math.Sqrt(float64(dim)))
			labels, core := dbscanLabels(t, ds, p)
			checkOracle(t, ds, labels, core, p, probeQueries(ds, eps, 200, uint64(dim)+5))
		})
		t.Run(fmt.Sprintf("arbitrary/d%d", dim), func(t *testing.T) {
			ds := clusteredDS(uint64(dim)+6, 800, dim, 3, 1.5)
			r := rng.New(uint64(dim) + 7)
			labels := make([]int32, ds.Len())
			core := make([]bool, ds.Len())
			for i := range labels {
				labels[i] = int32(r.Intn(40)) - 1 // Noise among them
				core[i] = r.Intn(2) == 0
			}
			checkOracle(t, ds, labels, core, p, probeQueries(ds, eps, 300, uint64(dim)+8))
		})
	}
}

// TestAssignOracleEdgeParams covers the parameter corners: d=1,
// minPts 1 (every query is core) and 2, fewer points than minPts, and
// a model whose every point is noise.
func TestAssignOracleEdgeParams(t *testing.T) {
	line := geom.NewDataset(200, 1)
	r := rng.New(41)
	for i := range line.Coords {
		line.Coords[i] = math.Floor(r.Float64()*400) / 4 // duplicates on a grid
	}
	for _, minPts := range []int{1, 2, 3, 5} {
		p := dbscan.Params{Eps: 0.5, MinPts: minPts}
		t.Run(fmt.Sprintf("d1/minPts%d", minPts), func(t *testing.T) {
			labels, core := dbscanLabels(t, line, p)
			checkOracle(t, line, labels, core, p, probeQueries(line, p.Eps, 400, uint64(minPts)))
		})
	}
	t.Run("fewer points than minPts", func(t *testing.T) {
		ds := line2d(0, 0.1, 0.2)
		p := dbscan.Params{Eps: 1, MinPts: 5}
		labels, core := dbscanLabels(t, ds, p)
		checkOracle(t, ds, labels, core, p, [][]float64{{0, 0}, {0.1, 0}, {0.15, 0}, {3, 0}})
	})
	t.Run("all noise", func(t *testing.T) {
		ds := clusteredDS(43, 500, 10, 4, 2)
		p := dbscan.Params{Eps: 20, MinPts: 4}
		labels := make([]int32, ds.Len())
		for i := range labels {
			labels[i] = Noise
		}
		checkOracle(t, ds, labels, make([]bool, ds.Len()), p, probeQueries(ds, p.Eps, 200, 44))
		checkOracle(t, ds, labels, make([]bool, ds.Len()), dbscan.Params{Eps: 20, MinPts: 1}, probeQueries(ds, p.Eps, 50, 45))
	})
}

// TestAssignFindsLowestLabelAtFarEdge puts the only label-0 core at
// the far edge of the query's ball (just inside eps, then exactly at it
// along axis 0) and a slab of label-1 points across the query's side of
// the root split, so the neighbour count reaches minPts-1 in the first
// leaf scanned. After that the descent may skip only nodes whose
// minimum key is not below the best so far, and the subtree holding
// the label-0 core is not one of them: the answer must still be 0.
func TestAssignFindsLowestLabelAtFarEdge(t *testing.T) {
	const eps = 1.0
	for _, gap := range []float64{0.999, eps} {
		for _, dim := range []int{2, 10, 33} {
			t.Run(fmt.Sprintf("gap%g/d%d", gap, dim), func(t *testing.T) {
				r := rng.New(uint64(dim))
				// Cluster 0 first so DBSCAN numbers it 0: the far-edge
				// point, made core by a clump 0.5 beyond it.
				var rows [][]float64
				for i := 0; i < 8; i++ {
					row := make([]float64, dim)
					row[0] = gap + 0.5 + 1e-3*float64(i)
					rows = append(rows, row)
				}
				rows[0][0] = gap
				// Cluster 1: x in [-0.3, 0.3], y in [0.75, 0.85]. Every
				// point is within eps of the origin and more than eps
				// from the far-edge point, and the slab straddles x=0,
				// where the root splits.
				for i := 0; i < 600; i++ {
					row := make([]float64, dim)
					for j := range row {
						row[j] = (r.Float64() - 0.5) * 0.02
					}
					row[0] = (r.Float64() - 0.5) * 0.6
					row[1] = 0.75 + r.Float64()*0.1
					rows = append(rows, row)
				}
				ds := geom.NewDataset(len(rows), dim)
				for i, row := range rows {
					ds.Set(int32(i), row)
				}
				p := dbscan.Params{Eps: eps, MinPts: 5}
				labels, core := dbscanLabels(t, ds, p)
				if labels[0] != 0 || !core[0] || labels[8] != 1 {
					t.Fatalf("setup: far-edge point label %d core %v, slab label %d", labels[0], core[0], labels[8])
				}
				q := make([]float64, dim)
				if want := classify(kdtree.NewBruteForce(ds).Radius(q, eps, nil, nil), labels, core, p.MinPts); want.Cluster != 0 {
					t.Fatalf("setup: the origin joins %d by brute force, want 0", want.Cluster)
				}
				checkOracle(t, ds, labels, core, p, [][]float64{q})
			})
		}
	}
}

// FuzzAssignMatchesOracle drives checkOracle over generated models:
// both distance paths, any minPts, DBSCAN-consistent or arbitrary
// labels. The seed corpus is committed under testdata/fuzz.
func FuzzAssignMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, dimRaw, minPtsRaw uint8, eps float64, arbitrary bool) {
		n := int(nRaw%500) + 1
		dim := []int{1, 2, 3, 10, 33, 128}[int(dimRaw)%6]
		if !(eps > 0 && eps < 1e4) {
			return
		}
		p := dbscan.Params{Eps: eps, MinPts: int(minPtsRaw%12) + 1}
		ds := clusteredDS(seed, n, dim, 1+int(seed%6), 1+float64(seed%5))
		var labels []int32
		var core []bool
		if arbitrary {
			r := rng.New(seed ^ 0xab)
			labels, core = make([]int32, n), make([]bool, n)
			for i := range labels {
				labels[i] = int32(r.Intn(8)) - 1
				core[i] = r.Intn(3) != 0
			}
		} else {
			labels, core = dbscanLabels(t, ds, p)
		}
		checkOracle(t, ds, labels, core, p, probeQueries(ds, eps, 40, seed^0xcd))
	})
}
