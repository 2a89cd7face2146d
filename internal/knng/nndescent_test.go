package knng

import (
	"math"
	"slices"
	"testing"

	"sparkdbscan/internal/geom"
)

// TestNNDescentSweepOrderIrrelevant runs one round over the same graph
// in index order, reversed, and the graph-order walk the builder uses,
// at one and three workers: every point's next list is a pure function
// of the current graph, so the next graph and the changed count must
// not depend on the order or on how workers split it.
func TestNNDescentSweepOrderIrrelevant(t *testing.T) {
	ds := clusteredDataset(t, 900)
	n, k := ds.Len(), 10
	d := newDescent(ds, k, ApproxOptions{Seed: 5, Workers: 2}.withDefaults(k))
	// Two rounds first, so the tested one starts from a graph holding
	// both fresh and used entries.
	for round := 0; round < 2; round++ {
		d.prepare(round)
		d.sweep(round, d.graphOrder())
		d.advance()
	}
	const round = 2
	d.prepare(round)

	index := make([]int32, n)
	for i := range index {
		index[i] = int32(i)
	}
	reversed := slices.Clone(index)
	slices.Reverse(reversed)
	walk := slices.Clone(d.graphOrder())
	sorted := slices.Clone(walk)
	slices.Sort(sorted)
	if !slices.Equal(sorted, index) {
		t.Fatal("graphOrder is not a permutation of the points")
	}
	if slices.Equal(walk, index) {
		t.Fatal("graphOrder equals index order; the test would compare nothing")
	}

	var wantIdx []int32
	var wantD2 []float64
	var wantFresh []bool
	wantChanged := -1
	for _, tc := range []struct {
		name  string
		order []int32
	}{{"index", index}, {"reversed", reversed}, {"graph", walk}} {
		for _, workers := range []int{1, 3} {
			// Poison the output so a point the sweep skips shows.
			for s := range d.nextIdx {
				d.nextIdx[s], d.nextD2[s], d.nextFresh[s] = -1, math.NaN(), s%2 == 0
			}
			d.opt.Workers = workers
			changed := d.sweep(round, tc.order)
			if wantChanged < 0 {
				wantIdx = slices.Clone(d.nextIdx)
				wantD2 = slices.Clone(d.nextD2)
				wantFresh = slices.Clone(d.nextFresh)
				wantChanged = changed
				if changed == 0 {
					t.Fatal("round changed no list; the test would compare nothing")
				}
				continue
			}
			if changed != wantChanged {
				t.Errorf("%s order, %d workers: changed = %d, want %d", tc.name, workers, changed, wantChanged)
			}
			if !slices.Equal(d.nextIdx, wantIdx) || !slices.Equal(d.nextFresh, wantFresh) ||
				!slices.EqualFunc(d.nextD2, wantD2, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s order, %d workers: next graph differs from index order at one worker", tc.name, workers)
			}
		}
	}
}

// TestNNDescentEdgeCases covers inputs the main tests do not reach: n
// one short of 2*queryBlock, where every parallel pass ends in a short
// block; k = n-1, where the initial lists already hold every other
// point so the graph must equal the exact one; and duplicate points,
// where every tie breaks by index.
func TestNNDescentEdgeCases(t *testing.T) {
	dups := geom.NewDataset(900, 8)
	src := randomDataset(t, 30, 8, 11)
	for i := 0; i < dups.Len(); i++ {
		copy(dups.At(int32(i)), src.At(int32(i%30)))
	}
	for _, tc := range []struct {
		name string
		ds   *geom.Dataset
		k    int
	}{
		{"small", randomDataset(t, 2*queryBlock-1, 16, 3), 8},
		{"k=n-1", randomDataset(t, 40, 5, 4), 39},
		{"duplicates", dups, 12},
	} {
		var base *Graph
		for _, workers := range []int{1, 3} {
			g, err := BuildNNDescent(tc.ds, tc.k, ApproxOptions{Seed: 9, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkValidGraph(t, tc.name, tc.ds, g)
			if base == nil {
				base = g
			} else if !graphsEqual(g, base) {
				t.Errorf("%s: graph differs at %d workers", tc.name, workers)
			}
		}
		if tc.name == "k=n-1" && !graphsEqual(base, naiveKNN(tc.ds, tc.k)) {
			t.Errorf("%s: graph differs from the exact one", tc.name)
		}
	}
}

// checkValidGraph asserts what every built graph guarantees: no self
// or repeated entries, and true distances in ascending (distance,
// index) order.
func checkValidGraph(t *testing.T, name string, ds *geom.Dataset, g *Graph) {
	t.Helper()
	for i := int32(0); i < int32(g.Len()); i++ {
		nb, nd := g.Neighbors(i), g.Dists(i)
		for m, j := range nb {
			if j == i || slices.Contains(nb[:m], j) {
				t.Fatalf("%s: point %d lists %d twice or itself: %v", name, i, j, nb)
			}
			if want := math.Sqrt(geom.SqDistD(ds.At(i), ds.At(j))); nd[m] != want {
				t.Fatalf("%s: point %d neighbour %d: stored %g, true %g", name, i, j, nd[m], want)
			}
			if m > 0 && (nd[m] < nd[m-1] || nd[m] == nd[m-1] && j < nb[m-1]) {
				t.Fatalf("%s: point %d list out of (distance, index) order: %v %v", name, i, nb, nd)
			}
		}
	}
}
