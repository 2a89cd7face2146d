package sparkdbscan

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sparkdbscan/internal/core"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/mapreduce"
	"sparkdbscan/internal/mrdbscan"
	"sparkdbscan/internal/pdsdbscan"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/spark"
)

// TestPipelineHDFSSparkDBSCAN is the cross-module integration test: a
// dataset is written to the simulated HDFS in text form, read back
// through spark.TextFileLines (one partition per block), parsed, clustered
// with the distributed algorithm, and the result is checked against
// sequential DBSCAN — the full path the paper's Algorithm 2 lines 1–3
// describe.
func TestPipelineHDFSSparkDBSCAN(t *testing.T) {
	spec, err := quest.ByName("c10k")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := quest.Generate(spec.Scaled(1500))
	if err != nil {
		t.Fatal(err)
	}

	// Driver writes the input file into HDFS.
	var buf bytes.Buffer
	if err := geom.WriteText(&buf, ds); err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(64<<10, 3) // 64 KiB blocks -> several partitions
	if err := fs.Write("input/points.txt", buf.Bytes(), nil); err != nil {
		t.Fatal(err)
	}

	// Read the file through the Spark substrate with record-aware
	// splits (lines crossing block boundaries belong to the split they
	// start in) and parse each partition.
	ctx := spark.NewContext(spark.Config{Cores: 4, Seed: 9})
	lines, err := spark.TextFileLines(ctx, fs, "input/points.txt")
	if err != nil {
		t.Fatal(err)
	}
	if lines.NumPartitions() < 2 {
		t.Fatalf("expected multiple blocks, got %d", lines.NumPartitions())
	}
	parsed := spark.MapPartitionsWithIndex(lines,
		func(split int, in []string, tc *spark.TaskContext) ([]*geom.Dataset, error) {
			if len(in) == 0 {
				return nil, nil
			}
			sub, err := geom.ReadText(strings.NewReader(strings.Join(in, "\n")))
			if err != nil {
				return nil, err
			}
			return []*geom.Dataset{sub}, nil
		})
	parts, err := parsed.Collect()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := geom.NewDataset(0, ds.Dim)
	for _, p := range parts {
		rebuilt.Coords = append(rebuilt.Coords, p.Coords...)
		rebuilt.Label = append(rebuilt.Label, p.Label...)
	}
	if rebuilt.Len() != ds.Len() {
		t.Fatalf("rebuilt %d points, want %d", rebuilt.Len(), ds.Len())
	}
	for i := range ds.Coords {
		if rebuilt.Coords[i] != ds.Coords[i] {
			t.Fatalf("coord %d corrupted through HDFS+Spark", i)
		}
	}

	// Cluster the rebuilt dataset distributedly and compare with the
	// sequential reference on the original.
	params := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
	tree := kdtree.Build(ds)
	ref, err := dbscan.Run(ds, tree, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(ctx, rebuilt, core.Config{Params: params, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Global.Labels, ref.Labels) {
		t.Fatal("pipeline labels != sequential")
	}
}

// TestFourWayAgreement runs the same workload through (1) sequential
// DBSCAN, (2) the paper's Spark algorithm, (3) the MapReduce baseline
// and (4) Patwary et al.'s disjoint-set parallel DBSCAN, and demands
// agreement — the property the paper asserts ("all parallel executions
// generate the same result as the serial execution" and "our results
// match [Patwary et al.]"). The Spark and disjoint-set labels equal
// the sequential ones byte for byte; the MapReduce baseline's are
// checked for equivalence.
func TestFourWayAgreement(t *testing.T) {
	spec, err := quest.ByName("r10k")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := quest.Generate(spec.Scaled(1200))
	if err != nil {
		t.Fatal(err)
	}
	params := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
	tree := kdtree.Build(ds)

	seq, err := dbscan.Run(ds, tree, params)
	if err != nil {
		t.Fatal(err)
	}

	sctx := spark.NewContext(spark.Config{Cores: 4, Seed: 2})
	sparkRes, err := core.Run(sctx, ds, core.Config{Params: params, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sparkRes.Global.Labels, seq.Labels) {
		t.Fatal("spark labels != sequential")
	}

	mrRes, err := mrdbscan.Run(ds, mrdbscan.Config{
		Params: params,
		MR:     mapreduce.Config{Cores: 4, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	pdsRes, err := pdsdbscan.Run(ds, tree, pdsdbscan.Config{Params: params, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pdsRes.Labels, seq.Labels) {
		t.Fatal("pdsdbscan labels != sequential")
	}

	rep, err := eval.EquivCheck(ds, seq, mrRes.Labels, params, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact() {
		t.Fatalf("mr != sequential: %v", rep)
	}
	ri, err := eval.RandIndex(sparkRes.Global.Labels, mrRes.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ri != 1 {
		t.Fatalf("spark vs mr Rand index %g != 1", ri)
	}
}

// TestMergeIdempotent: property test — merging a set of partial
// clusters twice yields identical labelings, and the merge never
// assigns more clusters than partial clusters.
func TestMergeIdempotent(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		parts := int(partsRaw%6) + 2
		spec, err := quest.ByName("c10k")
		if err != nil {
			return false
		}
		s := spec.Scaled(400)
		s.Seed = seed
		ds, err := quest.Generate(s)
		if err != nil {
			return false
		}
		tree := kdtree.Build(ds)
		part, err := core.NewPartitioner(ds.Len(), parts)
		if err != nil {
			return false
		}
		var partials []core.PartialCluster
		for sp := 0; sp < parts; sp++ {
			lr, err := core.LocalDBSCAN(ds, tree, part, sp, core.LocalOptions{
				Params:   dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts},
				SeedMode: core.SeedExact,
			})
			if err != nil {
				return false
			}
			partials = append(partials, lr.Clusters...)
		}
		a := core.Merge(partials, ds.Len(), core.MergeOptions{})
		b := core.Merge(partials, ds.Len(), core.MergeOptions{})
		if a.NumClusters != b.NumClusters || a.NumClusters > len(partials) {
			return false
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceAcrossSeeds: property test — for random small
// workloads, partition counts and seeds, the default exact pair always
// reproduces sequential DBSCAN's labels byte for byte.
func TestEquivalenceAcrossSeeds(t *testing.T) {
	check := func(seed uint64, partsRaw, coresRaw uint8) bool {
		parts := int(partsRaw%8) + 1
		cores := int(coresRaw%8) + 1
		spec, err := quest.ByName("r10k")
		if err != nil {
			return false
		}
		s := spec.Scaled(600)
		s.Seed = seed
		ds, err := quest.Generate(s)
		if err != nil {
			return false
		}
		params := dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}
		tree := kdtree.Build(ds)
		ref, err := dbscan.Run(ds, tree, params)
		if err != nil {
			return false
		}
		sctx := spark.NewContext(spark.Config{Cores: cores, Seed: seed})
		res, err := core.Run(sctx, ds, core.Config{Params: params, Partitions: parts})
		if err != nil {
			return false
		}
		return slices.Equal(res.Global.Labels, ref.Labels)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRandIndexPermutationProperty: relabeling clusters by any fixed
// permutation never changes the Rand index.
func TestRandIndexPermutationProperty(t *testing.T) {
	check := func(labelsRaw []uint8, shift uint8) bool {
		if len(labelsRaw) == 0 {
			return true
		}
		a := make([]int32, len(labelsRaw))
		b := make([]int32, len(labelsRaw))
		for i, v := range labelsRaw {
			a[i] = int32(v % 7)
			b[i] = (a[i] + int32(shift%7)) % 7 // bijective relabeling
		}
		ri, err := eval.RandIndex(a, b)
		return err == nil && ri == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
