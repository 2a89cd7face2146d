package core

import (
	"math"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/spark"
)

func TestSpatialOrderIsPermutation(t *testing.T) {
	ds := testDataset(t, "r10k", 2000)
	order := SpatialOrder(ds)
	if len(order) != ds.Len() {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, ds.Len())
	for _, idx := range order {
		if idx < 0 || int(idx) >= ds.Len() || seen[idx] {
			t.Fatalf("not a permutation at %d", idx)
		}
		seen[idx] = true
	}
}

func TestSpatialOrderImprovesLocality(t *testing.T) {
	ds := testDataset(t, "r10k", 3000)
	order := SpatialOrder(ds)
	reordered := ReorderDataset(ds, order)
	// Mean distance between index-consecutive points must shrink a lot
	// compared to the shuffled original.
	meanStep := func(d *geom.Dataset) float64 {
		var sum float64
		for i := int32(0); i+1 < int32(d.Len()); i++ {
			sum += geom.Dist(d.At(i), d.At(i+1))
		}
		return sum / float64(d.Len()-1)
	}
	before, after := meanStep(ds), meanStep(reordered)
	if after > before/2 {
		t.Fatalf("Z-order did not improve locality: %.1f -> %.1f", before, after)
	}
}

func TestSpatialOrderDegenerate(t *testing.T) {
	// All-identical points: zero span in every dimension.
	ds := geom.NewDataset(50, 3)
	for i := int32(0); i < 50; i++ {
		ds.Set(i, []float64{1, 1, 1})
	}
	order := SpatialOrder(ds)
	if len(order) != 50 {
		t.Fatal("degenerate order wrong length")
	}
	// Empty dataset.
	if got := SpatialOrder(geom.NewDataset(0, 3)); len(got) != 0 {
		t.Fatalf("empty order = %v", got)
	}
}

func TestReorderAndInvertRoundTrip(t *testing.T) {
	ds := testDataset(t, "c10k", 500)
	order := SpatialOrder(ds)
	reordered := ReorderDataset(ds, order)
	// Labels on the reordered data, mapped back, must line up with the
	// reordered ground truth.
	back := InvertOrder(order, reordered.Label)
	for i := range ds.Label {
		if back[i] != ds.Label[i] {
			t.Fatalf("label %d: %d != %d", i, back[i], ds.Label[i])
		}
	}
	// Coordinates moved with their labels.
	for k, src := range order {
		a, b := reordered.At(int32(k)), ds.At(src)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("point %d coord %d mismatch", k, j)
			}
		}
	}
}

func TestInterleaveOrdering(t *testing.T) {
	// In 2-d with 2 bits, (0,0) < (0,1)... along the Z curve; key of the
	// max cell must exceed key of the min cell, and interleaving must
	// weight high bits of either dimension above low bits.
	lo := interleave([]uint64{0, 0}, 2)
	hi := interleave([]uint64{3, 3}, 2)
	if lo != 0 || hi != 15 {
		t.Fatalf("corner keys: lo=%d hi=%d", lo, hi)
	}
	// (2,0) shares the high-x half: key must exceed any (1,y).
	if interleave([]uint64{2, 0}, 2) <= interleave([]uint64{1, 3}, 2) {
		t.Fatal("high bit of x not dominant")
	}
}

func TestSpatialPartitioningReducesPartialClusters(t *testing.T) {
	ds := testDataset(t, "r10k", 5000)
	run := func(spatial bool) *Result {
		sctx := spark.NewContext(spark.Config{Cores: 16, Seed: 3})
		res, err := Run(sctx, ds, Config{
			Params:              tableParams,
			Partitions:          16,
			SpatialPartitioning: spatial,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	spatial := run(true)
	if spatial.Global.NumPartialClusters*2 > plain.Global.NumPartialClusters {
		t.Fatalf("spatial partitioning did not reduce partial clusters: %d vs %d",
			spatial.Global.NumPartialClusters, plain.Global.NumPartialClusters)
	}
	// Same clustering, expressed in the original point order.
	if spatial.Global.NumClusters != plain.Global.NumClusters ||
		spatial.Global.NumNoise != plain.Global.NumNoise {
		t.Fatalf("spatial run changed the clustering: %d/%d vs %d/%d",
			spatial.Global.NumClusters, spatial.Global.NumNoise,
			plain.Global.NumClusters, plain.Global.NumNoise)
	}
	agree := 0
	for i := range plain.Global.Labels {
		if (plain.Global.Labels[i] < 0) == (spatial.Global.Labels[i] < 0) {
			agree++
		}
	}
	if frac := float64(agree) / float64(ds.Len()); frac < 0.999 {
		t.Fatalf("noise sets diverge: %.4f agreement", frac)
	}
}

func TestSpatialOrderDeterministic(t *testing.T) {
	r := rng.New(5)
	ds := geom.NewDataset(400, 4)
	for i := range ds.Coords {
		ds.Coords[i] = r.Float64()*200 - 100
	}
	a := SpatialOrder(ds)
	b := SpatialOrder(ds)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	_ = math.Pi // keep math import for potential tolerance tweaks
}
