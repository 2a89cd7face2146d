package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// line2d builds a 2-d dataset from x coordinates on the y=0 axis —
// the border-semantics tests need exact control over distances.
func line2d(xs ...float64) *geom.Dataset {
	ds := geom.NewDataset(len(xs), 2)
	for i, x := range xs {
		ds.Set(int32(i), []float64{x, 0})
	}
	return ds
}

func clusteredDS(seed uint64, n, dim, clusters int, std float64) *geom.Dataset {
	r := rng.New(seed)
	ds := geom.NewDataset(n, dim)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.Float64() * 1000
		}
	}
	for i := 0; i < n; i++ {
		c := centers[i%clusters]
		for j := 0; j < dim; j++ {
			ds.Coords[i*dim+j] = c[j] + r.NormFloat64()*std
		}
	}
	return ds
}

func mustFreeze(t *testing.T, ds *geom.Dataset, p dbscan.Params) (*Model, *dbscan.Result) {
	t.Helper()
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Freeze(ds, res.Labels, res.Core, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestFreezeValidation(t *testing.T) {
	ds := line2d(0, 1, 2)
	if _, err := Freeze(ds, []int32{0, 0}, nil, nil, dbscan.Params{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("label-count mismatch accepted")
	}
	if _, err := Freeze(ds, []int32{0, 0, 0}, []bool{true}, nil, dbscan.Params{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
	if _, err := Freeze(ds, []int32{0, 0, 0}, nil, nil, dbscan.Params{Eps: 0, MinPts: 1}); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := Freeze(ds, []int32{0, 0, 0}, nil, kdtree.Build(line2d(0, 1)), dbscan.Params{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("tree-size mismatch accepted")
	}
}

// TestFreezeRejectsNonFinite: a snapshot with a NaN or ±Inf coordinate
// is refused, and the error names the point and the coordinate.
func TestFreezeRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name         string
		v            float64
		point, coord int
	}{
		{"nan", math.NaN(), 1, 0},
		{"+inf", math.Inf(1), 2, 1},
		{"-inf", math.Inf(-1), 0, 1},
	} {
		ds := line2d(0, 1, 2)
		ds.Coords[tc.point*ds.Dim+tc.coord] = tc.v
		_, err := Freeze(ds, []int32{0, 0, 0}, nil, nil, dbscan.Params{Eps: 1, MinPts: 1})
		want := fmt.Sprintf("point %d: coordinate %d", tc.point, tc.coord)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Freeze error %v, want %q", tc.name, err, want)
		}
	}
}

// TestFreezeDerivesCoreBitset pins that a Freeze without core flags
// (the distributed path — the driver merge keeps only labels)
// recomputes exactly the bitset sequential DBSCAN produced.
func TestFreezeDerivesCoreBitset(t *testing.T) {
	ds := clusteredDS(3, 1200, 2, 3, 5)
	p := dbscan.Params{Eps: 8, MinPts: 5}
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	withCore, err := Freeze(ds, res.Labels, res.Core, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := Freeze(ds, res.Labels, nil, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	if withCore.NumCore() != derived.NumCore() {
		t.Fatalf("derived %d core points, sequential DBSCAN marked %d", derived.NumCore(), withCore.NumCore())
	}
	for i := range res.Labels {
		if withCore.isCore(int32(i)) != derived.isCore(int32(i)) {
			t.Fatalf("core bit %d differs between given and derived bitsets", i)
		}
	}
}

// TestAssignBorderSemantics is the table test for the decision
// structure Assign freezes: a point joins the cluster of a core point
// within eps, ties across clusters break to the lowest cluster id, a
// point reachable only through a border point stays noise, and dense
// empty space reports Core with no cluster. The tie case is then
// hammered by 100 concurrent calls, which must all agree.
func TestAssignBorderSemantics(t *testing.T) {
	// Index order ⇒ cluster ids: A = {0, .05, .1, .15} becomes cluster
	// 0, B = {.95, 1.0, 1.05, 1.1} cluster 1. With eps=.52, minPts=4
	// all eight are core; the ninth point (x=1.6) only reaches core
	// 1.1 (dist .50) and so is a border point of cluster 1.
	ds := line2d(0, 0.05, 0.1, 0.15, 0.95, 1.0, 1.05, 1.1, 1.6)
	p := dbscan.Params{Eps: 0.52, MinPts: 4}
	m, res := mustFreeze(t, ds, p)
	if res.NumClusters != 2 {
		t.Fatalf("setup: want 2 clusters, got %d", res.NumClusters)
	}
	// Point 8 (x=1.6) is a border point of cluster 1: within eps of
	// core 1.1, but its own neighbourhood {1.1, 1.15?…} is too small.
	if res.Core[8] || res.Labels[8] != 1 {
		t.Fatalf("setup: point 8 core=%v label=%d, want border of cluster 1", res.Core[8], res.Labels[8])
	}

	cases := []struct {
		name string
		q    []float64
		want Assignment
	}{
		// Equidistant (0.40) from cores 0.15 (cluster 0) and 0.95
		// (cluster 1): deterministic tie-break to the lower id. Its
		// own neighbourhood holds 6 points, so it would be core.
		{"tie breaks to lowest id", []float64{0.55, 0}, Assignment{Cluster: 0, Core: true}},
		{"interior of A", []float64{0.05, 0}, Assignment{Cluster: 0, Core: true}},
		{"interior of B", []float64{1.02, 0}, Assignment{Cluster: 1, Core: true}},
		// 2.0 is within eps of border point 1.6 only (dist .40; the
		// nearest core 1.1 is .90 away): density-reachability does not
		// extend through border points, so this is noise.
		{"reachable only via border", []float64{2.0, 0}, Assignment{Cluster: Noise, Core: false}},
		{"far away", []float64{50, 50}, Assignment{Cluster: Noise, Core: false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := m.Assign(tc.q); got != tc.want {
				t.Fatalf("Assign(%v) = %+v, want %+v", tc.q, got, tc.want)
			}
		})
	}

	// The tie case must stay deterministic under concurrency: 100
	// repeated concurrent calls, through both the direct and the
	// batched entry, all agree with the sequential answer.
	srv := NewServer(m, Options{Workers: 8, BatchCap: 8})
	defer srv.Close()
	tie := []float64{0.55, 0}
	want := m.Assign(tie)
	var wg sync.WaitGroup
	got := make([]Assignment, 100)
	errs := make([]error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = m.Assign(tie)
			} else {
				got[i], errs[i] = srv.Assign(context.Background(), tie)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		got[i].Generation = 0
		if got[i] != want {
			t.Fatalf("call %d: %+v, want %+v", i, got[i], want)
		}
	}
}

// TestAssignBatchMatchesAssign pins the batched entry to the scalar
// one across a realistic workload.
func TestAssignBatchMatchesAssign(t *testing.T) {
	ds := clusteredDS(9, 2000, 10, 2, 8)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 25, MinPts: 5})
	nq := 200
	qs := make([]float64, 0, nq*ds.Dim)
	for i := 0; i < nq; i++ {
		qs = append(qs, ds.At(int32(i*7%ds.Len()))...)
	}
	out := make([]Assignment, nq)
	m.AssignBatch(qs, out)
	for i := 0; i < nq; i++ {
		if want := m.Assign(qs[i*ds.Dim : (i+1)*ds.Dim]); out[i] != want {
			t.Fatalf("query %d: batch %+v, scalar %+v", i, out[i], want)
		}
	}
}

// TestAssignMatchesOfflineLabels feeds every dataset point back to
// Assign: core points must get their own cluster back, and border
// points must land in some cluster whose core reaches them (which may
// legitimately differ from the offline tie-break).
func TestAssignMatchesOfflineLabels(t *testing.T) {
	ds := clusteredDS(17, 1500, 2, 4, 6)
	m, res := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	for i := 0; i < ds.Len(); i++ {
		a := m.Assign(ds.At(int32(i)))
		if res.Core[i] {
			if a.Cluster != res.Labels[i] {
				t.Fatalf("core point %d: Assign says %d, offline label %d", i, a.Cluster, res.Labels[i])
			}
			if !a.Core {
				t.Fatalf("core point %d not reported Core", i)
			}
		} else if res.Labels[i] != dbscan.Noise && a.Cluster == Noise {
			t.Fatalf("border point %d of cluster %d assigned to noise", i, res.Labels[i])
		}
	}
}
