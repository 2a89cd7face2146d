package core

import (
	"fmt"
	"slices"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/spark"
)

func testDataset(t *testing.T, name string, n int) *geom.Dataset {
	t.Helper()
	spec, err := quest.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(n)
	ds, err := quest.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var tableParams = dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}

func sequential(t *testing.T, ds *geom.Dataset) (*dbscan.Result, *kdtree.Tree) {
	t.Helper()
	tree := kdtree.Build(ds)
	ref, err := dbscan.Run(ds, tree, tableParams)
	if err != nil {
		t.Fatal(err)
	}
	return ref, tree
}

// TestLocalPlusMergeEquivalence is the central correctness test: across
// datasets and partition counts, the exact pair (SeedExact local
// clustering + the default canonical merge) must reproduce sequential
// DBSCAN's labels byte for byte.
func TestLocalPlusMergeEquivalence(t *testing.T) {
	for _, dsName := range []string{"c10k", "r10k"} {
		ds := testDataset(t, dsName, 3000)
		ref, tree := sequential(t, ds)
		for _, parts := range []int{1, 2, 3, 5, 8, 16} {
			part, err := NewPartitioner(ds.Len(), parts)
			if err != nil {
				t.Fatal(err)
			}
			var partials []PartialCluster
			for s := 0; s < parts; s++ {
				lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedExact})
				if err != nil {
					t.Fatal(err)
				}
				partials = append(partials, lr.Clusters...)
			}
			global := Merge(partials, ds.Len(), MergeOptions{})
			compareLabels(t, fmt.Sprintf("%s parts=%d", dsName, parts), ref.Labels, global.Labels)
			if global.NumClusters != ref.NumClusters || global.NumNoise != ref.NumNoise {
				t.Fatalf("%s parts=%d: %d clusters / %d noise, sequential %d / %d",
					dsName, parts, global.NumClusters, global.NumNoise, ref.NumClusters, ref.NumNoise)
			}
		}
	}
}

func TestSinglePartitionMatchesSequentialExactly(t *testing.T) {
	ds := testDataset(t, "c10k", 2000)
	ref, tree := sequential(t, ds)
	part, _ := NewPartitioner(ds.Len(), 1)
	lr, err := LocalDBSCAN(ds, tree, part, 0, LocalOptions{Params: tableParams, SeedMode: SeedExact})
	if err != nil {
		t.Fatal(err)
	}
	global := Merge(lr.Clusters, ds.Len(), MergeOptions{})
	// With one partition there are no seeds at all and the result must
	// be label-for-label identical (same visit order).
	if len(lr.Clusters) != ref.NumClusters {
		t.Fatalf("%d partial clusters, sequential %d", len(lr.Clusters), ref.NumClusters)
	}
	for i := range global.Labels {
		if global.Labels[i] != ref.Labels[i] {
			t.Fatalf("label %d: %d != %d", i, global.Labels[i], ref.Labels[i])
		}
	}
	for _, pc := range lr.Clusters {
		if len(pc.Seeds) != 0 {
			t.Fatalf("single partition produced seeds: %v", pc)
		}
	}
}

func TestSeedsAreForeignAndMembersAreLocal(t *testing.T) {
	ds := testDataset(t, "r10k", 2000)
	_, tree := sequential(t, ds)
	parts := 4
	part, _ := NewPartitioner(ds.Len(), parts)
	for s := 0; s < parts; s++ {
		lo, hi := part.Range(s)
		for _, mode := range []SeedMode{SeedSingle, SeedExact} {
			lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range lr.Clusters {
				for _, m := range pc.Members {
					if m < lo || m >= hi {
						t.Fatalf("mode=%v: member %d outside [%d,%d)", mode, m, lo, hi)
					}
				}
				for _, sd := range pc.Seeds {
					if sd >= lo && sd < hi {
						t.Fatalf("mode=%v: seed %d inside own partition", mode, sd)
					}
				}
				// SeedExact records reached owned non-cores as Borders;
				// SeedSingle makes them Members.
				for _, b := range pc.Borders {
					if b < lo || b >= hi {
						t.Fatalf("mode=%v: border %d outside [%d,%d)", mode, b, lo, hi)
					}
				}
				if mode == SeedSingle && len(pc.Borders) != 0 {
					t.Fatalf("mode=%v produced Borders", mode)
				}
			}
		}
	}
}

func TestSeedSingleOnePerPartition(t *testing.T) {
	ds := testDataset(t, "r10k", 2000)
	_, tree := sequential(t, ds)
	parts := 5
	part, _ := NewPartitioner(ds.Len(), parts)
	for s := 0; s < parts; s++ {
		lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedSingle})
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range lr.Clusters {
			perPart := make(map[int]int)
			for _, sd := range pc.Seeds {
				perPart[part.Owner(sd)]++
			}
			for p, cnt := range perPart {
				if cnt > 1 {
					t.Fatalf("cluster %v placed %d seeds in partition %d", pc.String(), cnt, p)
				}
			}
			if len(pc.Seeds) > parts-1 {
				t.Fatalf("cluster has %d seeds for %d partitions", len(pc.Seeds), parts)
			}
		}
	}
}

func TestMembersPartitionWholePartition(t *testing.T) {
	// Under the paper's seed rule every owned point appears in exactly
	// one partial cluster's Members, or in none (local noise).
	ds := testDataset(t, "c10k", 1500)
	_, tree := sequential(t, ds)
	parts := 3
	part, _ := NewPartitioner(ds.Len(), parts)
	seen := make(map[int32]int)
	totalNoise := 0
	for s := 0; s < parts; s++ {
		lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedSingle})
		if err != nil {
			t.Fatal(err)
		}
		totalNoise += lr.LocalNoise
		for _, pc := range lr.Clusters {
			for _, m := range pc.Members {
				seen[m]++
			}
		}
	}
	for pt, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("point %d is a member of %d partial clusters", pt, cnt)
		}
	}
	if len(seen)+totalNoise != ds.Len() {
		t.Fatalf("members(%d) + noise(%d) != n(%d)", len(seen), totalNoise, ds.Len())
	}
}

func TestPartialClusterCountGrowsWithPartitions(t *testing.T) {
	// The driving phenomenon of Figure 6: more partitions fragment the
	// local expansion graphs into more partial clusters.
	ds := testDataset(t, "r10k", 5000)
	_, tree := sequential(t, ds)
	counts := []int{}
	for _, parts := range []int{1, 4, 16} {
		part, _ := NewPartitioner(ds.Len(), parts)
		total := 0
		for s := 0; s < parts; s++ {
			lr, err := LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedSingle})
			if err != nil {
				t.Fatal(err)
			}
			total += len(lr.Clusters)
		}
		counts = append(counts, total)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("partial clusters not growing with partitions: %v", counts)
	}
}

func TestMergePaperVsParallelOnTransitiveChain(t *testing.T) {
	// Hand-built SeedExact-shaped scenario (core Members, lowest first;
	// foreign Seeds) with a transitive merge chain A->B->C: cluster 0
	// seeds into 1, cluster 1 seeds into 2.
	partials := []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{0, 1}, Seeds: []int32{4}},
		{Partition: 1, Seq: 0, Members: []int32{4, 5}, Seeds: []int32{8}},
		{Partition: 2, Seq: 0, Members: []int32{8, 9}, Seeds: nil},
	}
	par := Merge(partials, 12, MergeOptions{})
	if par.NumClusters != 1 || par.NumMerges != 2 {
		t.Fatalf("parallel: %d clusters / %d merges, want 1 / 2", par.NumClusters, par.NumMerges)
	}
	// Algorithm 4's single pass: cluster 0 absorbs 1 and marks it
	// finished, so 1's own seed into 2 is never chased and the chain
	// breaks — the transitive merge the paper's pass misses.
	paper := Merge(partials, 12, MergeOptions{Algo: MergePaper})
	if paper.NumClusters != 2 || paper.NumMerges != 1 {
		t.Fatalf("paper: %d clusters / %d merges, want 2 / 1", paper.NumClusters, paper.NumMerges)
	}
	if paper.Labels[0] != paper.Labels[4] || paper.Labels[4] == paper.Labels[8] {
		t.Fatalf("paper labels %v: want {0,1,4,5} together and {8,9} apart", paper.Labels)
	}
}

func TestMergeDanglingSeed(t *testing.T) {
	// A seed pointing at a point that is nobody's regular member (an
	// unclaimed border) must not crash and stays an element of the
	// cluster that recorded it.
	partials := []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{0, 1}, Seeds: []int32{5}},
	}
	g := Merge(partials, 6, MergeOptions{})
	if g.NumClusters != 1 {
		t.Fatalf("clusters = %d", g.NumClusters)
	}
	if g.Labels[5] != g.Labels[0] {
		t.Fatalf("dangling seed not kept as element: labels %v", g.Labels)
	}
	if g.Labels[2] != dbscan.Noise {
		t.Fatal("unrelated point clustered")
	}
}

func TestMergeSizeFilter(t *testing.T) {
	partials := []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{0, 1, 2, 3}},
		{Partition: 1, Seq: 0, Members: []int32{5}},
	}
	g := Merge(partials, 6, MergeOptions{MinPartialClusterSize: 3})
	if g.DroppedPartials != 1 {
		t.Fatalf("DroppedPartials = %d", g.DroppedPartials)
	}
	if g.Labels[5] != dbscan.Noise {
		t.Fatal("filtered cluster's member still labeled")
	}
	if g.NumClusters != 1 {
		t.Fatalf("clusters = %d", g.NumClusters)
	}
}

func TestMergeEmpty(t *testing.T) {
	g := Merge(nil, 4, MergeOptions{})
	if g.NumClusters != 0 || g.NumNoise != 4 {
		t.Fatalf("empty merge: %+v", g)
	}
}

func TestRunEndToEnd(t *testing.T) {
	ds := testDataset(t, "c10k", 3000)
	ref, _ := sequential(t, ds)
	for _, cores := range []int{1, 4, 8} {
		sctx := spark.NewContext(spark.Config{Cores: cores, Seed: 42})
		res, err := Run(sctx, ds, Config{Params: tableParams})
		if err != nil {
			t.Fatal(err)
		}
		compareLabels(t, fmt.Sprintf("cores=%d", cores), ref.Labels, res.Global.Labels)
		ph := res.Phases
		if ph.Executors <= 0 || ph.TreeBuild <= 0 || ph.ReadTransform <= 0 || ph.Merge <= 0 {
			t.Fatalf("cores=%d: missing phases: %+v", cores, ph)
		}
		if res.Global.NumPartialClusters < res.Global.NumClusters {
			t.Fatalf("cores=%d: fewer partials (%d) than clusters (%d)",
				cores, res.Global.NumPartialClusters, res.Global.NumClusters)
		}
	}
}

func TestRunVirtualTimeSpeedsUpWithCores(t *testing.T) {
	ds := testDataset(t, "c10k", 4000)
	exec := func(cores int) float64 {
		sctx := spark.NewContext(spark.Config{Cores: cores, Seed: 1})
		res, err := Run(sctx, ds, Config{Params: tableParams})
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases.Executors
	}
	t1, t8 := exec(1), exec(8)
	speedup := t1 / t8
	if speedup < 3 || speedup > 8.5 {
		t.Fatalf("8-core executor speedup %.2f outside [3, 8.5]", speedup)
	}
}

func TestRunPaperDefaultsMatchOnCleanData(t *testing.T) {
	// On the well-separated clustered family the paper's own settings
	// (SeedSingle + Algorithm 4 merge) must reproduce the sequential
	// clustering — this is the regime the paper validated in ("our
	// results match Patwary et al.").
	ds := testDataset(t, "c10k", 3000)
	ref, tree := sequential(t, ds)
	sctx := spark.NewContext(spark.Config{Cores: 4, Seed: 5})
	res, err := Run(sctx, ds, Config{
		Params: tableParams,
		Merge:  MergeOptions{Algo: MergePaper},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.EquivCheck(ds, ref, res.Global.Labels, tableParams, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CoreExact {
		t.Fatalf("paper defaults broke core co-clustering on clean data: %v", rep)
	}
}

func TestRunWithPruning(t *testing.T) {
	ds := testDataset(t, "r10k", 3000)
	sctx := spark.NewContext(spark.Config{Cores: 4})
	res, err := Run(sctx, ds, Config{
		Params:       tableParams,
		MaxNeighbors: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pruned runs are approximate; clusters must still exist and cover
	// most points.
	if res.Global.NumClusters == 0 {
		t.Fatal("pruned run found no clusters")
	}
	clustered := ds.Len() - res.Global.NumNoise
	if clustered < ds.Len()/2 {
		t.Fatalf("pruned run clustered only %d/%d", clustered, ds.Len())
	}
}

func TestRunSurvivesTaskFailures(t *testing.T) {
	// The full pipeline with flaky executors must produce the identical
	// clustering (accumulators must not double-count partial clusters
	// from retried tasks).
	ds := testDataset(t, "c10k", 2000)
	clean := spark.NewContext(spark.Config{Cores: 4, Seed: 8})
	ref, err := Run(clean, ds, Config{Params: tableParams, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	chaotic := spark.NewContext(spark.Config{
		Cores: 4,
		Seed:  8,
		FailureInjector: func(stage, partition, attempt int) error {
			if attempt == 0 && partition%2 == 1 {
				return fmt.Errorf("injected failure p%d", partition)
			}
			return nil
		},
	})
	res, err := Run(chaotic, ds, Config{Params: tableParams, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Global.NumPartialClusters != ref.Global.NumPartialClusters {
		t.Fatalf("partials %d != %d (accumulator double-count?)",
			res.Global.NumPartialClusters, ref.Global.NumPartialClusters)
	}
	for i := range ref.Global.Labels {
		if res.Global.Labels[i] != ref.Global.Labels[i] {
			t.Fatalf("label %d differs after failure injection", i)
		}
	}
	var failures int
	for _, st := range chaotic.Report().Stages {
		failures += st.Failures
	}
	if failures == 0 {
		t.Fatal("injector never fired")
	}
}

func TestRunReportStages(t *testing.T) {
	ds := testDataset(t, "c10k", 1000)
	sctx := spark.NewContext(spark.Config{Cores: 2})
	res, err := Run(sctx, ds, Config{Params: tableParams, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Stages) == 0 {
		t.Fatal("no stages recorded")
	}
	for _, st := range res.Report.Stages {
		if st.Tasks <= 0 || st.Seconds < 0 {
			t.Fatalf("bad stage report %+v", st)
		}
	}
	if res.Report.ExecutorSeconds <= 0 || res.Report.DriverSeconds <= 0 {
		t.Fatalf("report time split missing: %+v", res.Report)
	}
}

func TestRunParamValidation(t *testing.T) {
	ds := testDataset(t, "c10k", 100)
	sctx := spark.NewContext(spark.Config{})
	if _, err := Run(sctx, ds, Config{Params: dbscan.Params{Eps: -1, MinPts: 5}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestLocalDBSCANSplitValidation(t *testing.T) {
	ds := testDataset(t, "c10k", 100)
	tree := kdtree.Build(ds)
	part, _ := NewPartitioner(100, 4)
	if _, err := LocalDBSCAN(ds, tree, part, 4, LocalOptions{Params: tableParams}); err == nil {
		t.Fatal("out-of-range split accepted")
	}
	if _, err := LocalDBSCAN(ds, tree, part, -1, LocalOptions{Params: tableParams}); err == nil {
		t.Fatal("negative split accepted")
	}
}

func TestMergePaperLabelsIndependentOfCommitOrder(t *testing.T) {
	// Tasks commit partial clusters to the accumulator in host
	// scheduling order. Algorithm 4 numbers clusters by first
	// appearance, so its labels must not depend on that order: every
	// host parallelism and every repetition gives the same bytes.
	for _, name := range []string{"r10k", "c10k"} {
		ds := testDataset(t, name, 3000)
		var want []int32
		for _, hp := range []int{1, 2, 4} {
			for rep := 0; rep < 3; rep++ {
				sctx := spark.NewContext(spark.Config{Cores: 16, Seed: 5, HostParallelism: hp})
				res, err := Run(sctx, ds, Config{
					Params:     tableParams,
					Partitions: 16,
					Merge:      MergeOptions{Algo: MergePaper},
				})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res.Global.Labels
					continue
				}
				if !slices.Equal(res.Global.Labels, want) {
					t.Fatalf("%s: HostParallelism %d run %d: paper-pair labels differ from the first run", name, hp, rep)
				}
			}
		}
	}
}
