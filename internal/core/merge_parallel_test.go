package core

import (
	"bytes"
	"math"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"
)

// exactPartials runs the SeedExact local clustering over each split of
// a range partitioner and concatenates the partial clusters — the exact
// input contract MergeParallel consumes.
func exactPartials(t *testing.T, parts int, local func(s int) (*LocalResult, error)) []PartialCluster {
	t.Helper()
	var partials []PartialCluster
	for s := 0; s < parts; s++ {
		lr, err := local(s)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, lr.Clusters...)
	}
	return partials
}

// TestMergeParallelMatchesCanonicalProperty is the merge's property
// test: across datasets × partition counts × 1/2/4/8 workers (± the
// size filter), MergeParallel's labels are byte-identical to sequential
// DBSCAN's (unfiltered) and to the one-worker run's (filtered), and its
// NumMerges, cluster/noise counts and full metered Work ledger equal
// the one-worker run's — the worker count may only move derived time.
func TestMergeParallelMatchesCanonicalProperty(t *testing.T) {
	for _, dsName := range []string{"c10k", "r10k"} {
		ds := testDataset(t, dsName, 2500)
		ref, tree := sequential(t, ds)
		for _, parts := range []int{1, 3, 8, 16} {
			part, err := NewPartitioner(ds.Len(), parts)
			if err != nil {
				t.Fatal(err)
			}
			partials := exactPartials(t, parts, func(s int) (*LocalResult, error) {
				return LocalDBSCAN(ds, tree, part, s, LocalOptions{Params: tableParams, SeedMode: SeedExact})
			})
			for _, minSize := range []int{0, 3} {
				one := Merge(partials, ds.Len(), MergeOptions{MinPartialClusterSize: minSize, Workers: 1})
				if minSize == 0 && !bytes.Equal(int32Bytes(ref.Labels), int32Bytes(one.Labels)) {
					t.Fatalf("%s parts=%d: labels differ from sequential DBSCAN", dsName, parts)
				}
				for _, workers := range []int{2, 4, 8} {
					par := Merge(partials, ds.Len(), MergeOptions{
						MinPartialClusterSize: minSize, Workers: workers,
					})
					if !bytes.Equal(int32Bytes(one.Labels), int32Bytes(par.Labels)) {
						t.Fatalf("%s parts=%d min=%d workers=%d: labels differ from one worker",
							dsName, parts, minSize, workers)
					}
					if par.NumMerges != one.NumMerges ||
						par.NumClusters != one.NumClusters ||
						par.NumNoise != one.NumNoise ||
						par.NumPartialClusters != one.NumPartialClusters ||
						par.DroppedPartials != one.DroppedPartials {
						t.Fatalf("%s parts=%d min=%d workers=%d: counts differ:\none %+v\npar %+v",
							dsName, parts, minSize, workers, one, par)
					}
					if par.Work != one.Work || par.SerialWork != one.SerialWork {
						t.Fatalf("%s parts=%d min=%d workers=%d: Work differs:\none %+v / %+v\npar %+v / %+v",
							dsName, parts, minSize, workers, one.Work, one.SerialWork, par.Work, par.SerialWork)
					}
					if want := (simtime.Work{SortComps: one.Work.SortComps}); par.SerialWork != want {
						t.Fatalf("%s parts=%d min=%d workers=%d: SerialWork = %+v, want sort residue %+v",
							dsName, parts, minSize, workers, par.SerialWork, want)
					}
				}
			}
		}
	}
}

func int32Bytes(xs []int32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// TestMergeParallelEdgeCases: inputs the property test's generated
// partials can't produce — no partials at all, seeds dangling into
// noise, memberless partials — get the canonical labels at every
// worker count, with the one-worker run's counts and Work.
func TestMergeParallelEdgeCases(t *testing.T) {
	const N = dbscan.Noise
	check := func(name string, partials []PartialCluster, want []int32) {
		t.Helper()
		one := Merge(partials, len(want), MergeOptions{Workers: 1})
		for _, workers := range []int{1, 3, 8} {
			par := Merge(partials, len(want), MergeOptions{Workers: workers})
			if !bytes.Equal(int32Bytes(want), int32Bytes(par.Labels)) {
				t.Fatalf("%s workers=%d: labels %v, want %v", name, workers, par.Labels, want)
			}
			if par.Work != one.Work || par.NumMerges != one.NumMerges ||
				par.NumClusters != one.NumClusters || par.NumNoise != one.NumNoise {
				t.Fatalf("%s workers=%d: results differ:\none %+v\npar %+v", name, workers, one, par)
			}
		}
	}

	check("empty", nil, []int32{N, N, N, N, N, N, N, N, N, N})
	// Partition 1's seed 1 links it to partition 0; the dangling seed 7
	// and the border 8 join the merged cluster.
	check("dangling seed", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{0, 1}, Seeds: []int32{7}},
		{Partition: 1, Seq: 0, Members: []int32{4, 5}, Seeds: []int32{1}, Borders: []int32{8}},
	}, []int32{0, 0, N, N, 0, 0, N, 0, 0, N})
	check("memberless partial", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{2, 3}, Seeds: []int32{6}},
		{Partition: 1, Seq: 0, Seeds: []int32{2}, Borders: []int32{9}},
	}, []int32{N, N, 0, 0, N, N, 0, N, N, 0})
	// Clusters are numbered by lowest core (1, 3, 5); the shared border
	// 9 takes the lowest claiming label.
	check("shared border min-claim", []PartialCluster{
		{Partition: 0, Seq: 0, Members: []int32{5}, Borders: []int32{9}},
		{Partition: 1, Seq: 0, Members: []int32{1}, Borders: []int32{9}},
		{Partition: 2, Seq: 0, Members: []int32{3}, Borders: []int32{9}},
	}, []int32{N, 0, N, 1, N, 2, N, N, N, 0})
}

// TestMergeParallelFaultRecoveryByteIdentical: the journal-replay
// recovery path reuses the parallel merge, and under seeded compute +
// storage fault schedules with a driver crash mid-merge, labels stay
// byte-identical to the clean one-worker run — across worker counts and
// in both partitioning modes.
func TestMergeParallelFaultRecoveryByteIdentical(t *testing.T) {
	ds := testDataset(t, "c10k", 1500)
	for _, mode := range []PartitionMode{PartRange, PartCell} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(p *spark.FaultProfile, storage *StorageOptions, merge MergeOptions) *Result {
				sctx := spark.NewContext(spark.Config{
					Cores: 16, CoresPerExecutor: 4, Seed: 42, Faults: p,
				})
				res, err := Run(sctx, ds, Config{
					Params: tableParams, Partitions: 8, Storage: storage,
					Merge:        merge,
					Partitioning: mode, Cell: CellOptions{TargetPointsPerCell: 250},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			clean := run(nil, nil, MergeOptions{Workers: 1})
			for i, seed := range faultSeeds(t) {
				workers := []int{2, 8}[i%2]
				fs := hdfs.NewCluster(1<<14, 3, 6)
				if err := fs.Write("input", make([]byte, ds.SizeBytes()), nil); err != nil {
					t.Fatal(err)
				}
				fs.SetFaultProfile(&hdfs.StorageFaultProfile{
					Seed: seed, CorruptRate: 0.3, DatanodeCrashRate: 0.4,
				})
				res := run(&spark.FaultProfile{
					Seed: seed, TaskFailRate: 0.3, SlowRate: 0.2,
					ExecutorCrashRate: 0.5, MaxExecutorFailures: 6,
				}, &StorageOptions{
					FS: fs, InputFile: "input", SimulateDriverCrash: true,
				}, MergeOptions{Workers: workers})
				if !bytes.Equal(int32Bytes(clean.Global.Labels), int32Bytes(res.Global.Labels)) {
					t.Fatalf("seed %d workers %d: recovered parallel merge changed labels", seed, workers)
				}
				if res.Recovery.DriverCrashes != 1 ||
					res.Recovery.ReplayedClusters != res.Recovery.JournaledClusters {
					t.Fatalf("seed %d: replay not exactly-once: %+v", seed, res.Recovery)
				}
				if res.Global.NumMerges != clean.Global.NumMerges {
					t.Fatalf("seed %d: NumMerges %d != clean %d", seed, res.Global.NumMerges, clean.Global.NumMerges)
				}
			}
		})
	}
}

// TestMergeParallelWorkersMovePhaseTimeOnly: on a full clean run, the
// worker count changes the merge phase's simulated duration (more cores
// → shorter) while the driver Work ledger and labels stay identical;
// and the merge at 8 workers beats one worker by at least 2x on the
// phase clock.
func TestMergeParallelWorkersMovePhaseTimeOnly(t *testing.T) {
	ds := testDataset(t, "c10k", 2500)
	run := func(workers int) (*Result, spark.Report) {
		sctx := spark.NewContext(spark.Config{Cores: 16, CoresPerExecutor: 4, Seed: 42})
		res, err := Run(sctx, ds, Config{
			Params: tableParams, Partitions: 16, Merge: MergeOptions{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sctx.Report()
	}
	par1, rep1 := run(1)
	par8, rep8 := run(8)

	if !bytes.Equal(int32Bytes(par1.Global.Labels), int32Bytes(par8.Global.Labels)) {
		t.Fatal("labels differ between 1 and 8 workers")
	}
	if rep1.DriverWork != rep8.DriverWork {
		t.Fatalf("DriverWork depends on merge workers:\npar1 %+v\npar8 %+v", rep1.DriverWork, rep8.DriverWork)
	}
	if speedup := par1.Phases.Merge / par8.Phases.Merge; speedup < 2 {
		t.Fatalf("merge speedup at 8 workers = %.2fx, want >= 2x (1 worker %g s, 8 workers %g s)",
			speedup, par1.Phases.Merge, par8.Phases.Merge)
	}
	// Everything outside the merge phase is untouched.
	for name, pair := range map[string][2]float64{
		"ReadTransform": {par1.Phases.ReadTransform, par8.Phases.ReadTransform},
		"TreeBuild":     {par1.Phases.TreeBuild, par8.Phases.TreeBuild},
		"Broadcast":     {par1.Phases.Broadcast, par8.Phases.Broadcast},
		"Executors":     {par1.Phases.Executors, par8.Phases.Executors},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("phase %s moved with merge workers: %g vs %g", name, pair[0], pair[1])
		}
	}
}

// TestParallelMergeTracingDeterministic: with the parallel merge (and a
// driver crash recovering through it) under a traced faulty run, the
// critical path still tiles Phases.Total() exactly, exports stay
// byte-identical across runs — real merge goroutines underneath — and
// the merge phase's share of the path drops versus the one-worker merge.
func TestParallelMergeTracingDeterministic(t *testing.T) {
	ds := testDataset(t, "c10k", 2500)
	export := func(merge MergeOptions) (*Result, []byte, []trace.Segment) {
		tr := trace.NewRecorder()
		fs := hdfs.NewCluster(1<<14, 3, 6)
		if err := fs.Write("input", make([]byte, ds.SizeBytes()), nil); err != nil {
			t.Fatal(err)
		}
		fs.SetFaultProfile(&hdfs.StorageFaultProfile{
			Seed: 11, CorruptRate: 0.3, DatanodeCrashRate: 0.4,
		})
		sctx := spark.NewContext(spark.Config{
			Cores: 16, CoresPerExecutor: 4, Seed: 42,
			Faults: &spark.FaultProfile{
				Seed: 11, TaskFailRate: 0.3, SlowRate: 0.2,
				ExecutorCrashRate: 0.5, MaxExecutorFailures: 6,
			},
			Tracer: tr,
		})
		res, err := Run(sctx, ds, Config{
			Params: tableParams, Partitions: 8, Merge: merge,
			Storage: &StorageOptions{FS: fs, InputFile: "input", SimulateDriverCrash: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := tr.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, j, tr.CriticalPath()
	}

	par := MergeOptions{Workers: 8}
	res, j1, segs := export(par)
	cur, sum := 0.0, 0.0
	for i, s := range segs {
		if math.Abs(s.Start-cur) > 1e-9 {
			t.Fatalf("segment %d (%s) starts at %g, previous ended at %g", i, s.Name, s.Start, cur)
		}
		cur = s.End
		sum += s.Seconds
	}
	if total := res.Phases.Total(); math.Abs(sum-total) > 1e-9 {
		t.Fatalf("critical path %.12f != Phases.Total() %.12f", sum, total)
	}
	_, j2, _ := export(par)
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace JSON differs across identical parallel-merge runs")
	}

	_, _, seqSegs := export(MergeOptions{Workers: 1})
	if parShare, seqShare := trace.ShareByName(segs, "merge"), trace.ShareByName(seqSegs, "merge"); parShare >= seqShare {
		t.Fatalf("merge share did not drop: parallel %.3f vs sequential %.3f", parShare, seqShare)
	}
}
