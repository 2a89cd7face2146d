package bench

import (
	"fmt"
	"io"
	"slices"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"

	coredbscan "sparkdbscan/internal/core"
)

// The storage bench quantifies what storage failure costs. Section A
// runs the full pipeline clean, with journaling, and per seed under a
// storage-fault profile (corrupt replicas + dead datanodes) with a
// driver crash mid-merge — contrasting makespans while asserting the
// labels invariant. Section B isolates the checkpoint-vs-lineage
// tradeoff on a synthetic expensive chain: recomputation replays the
// chain on every retry, a checkpoint replaces it with an HDFS read.

func storageBenchProfile(seed uint64) *hdfs.StorageFaultProfile {
	return &hdfs.StorageFaultProfile{
		Seed:              seed,
		CorruptRate:       0.3,
		DatanodeCrashRate: 0.4,
	}
}

// StorageBenchRun is one pipeline arm of the section-A comparison.
type StorageBenchRun struct {
	Name              string  `json:"name"`
	Seed              uint64  `json:"seed,omitempty"`
	TotalSeconds      float64 `json:"total_seconds"`
	DriverSeconds     float64 `json:"driver_seconds"`
	Overhead          float64 `json:"overhead_vs_clean"` // total/clean-total
	ChecksumFailures  int64   `json:"checksum_failures"`
	DeadNodeProbes    int64   `json:"dead_node_probes"`
	ReReplications    int64   `json:"re_replications"`
	JournaledClusters int     `json:"journaled_clusters"`
	DriverCrashes     int     `json:"driver_crashes"`
	LabelsMatch       bool    `json:"labels_match_clean"`
}

// CheckpointBenchRun is one arm of the section-B comparison.
type CheckpointBenchRun struct {
	Arm             string  `json:"arm"`
	ExecutorSeconds float64 `json:"executor_seconds"`
	DriverSeconds   float64 `json:"driver_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
	FailedAttempts  int     `json:"failed_attempts"`
}

// StorageBenchResult is the BENCH_storage.json result body.
type StorageBenchResult struct {
	Dataset           string               `json:"dataset"`
	Points            int                  `json:"points"`
	Cores             int                  `json:"cores"`
	Partitions        int                  `json:"partitions"`
	CleanTotalSeconds float64              `json:"clean_total_seconds"`
	Pipeline          []StorageBenchRun    `json:"pipeline"`
	Checkpoint        []CheckpointBenchRun `json:"checkpoint_vs_lineage"`
}

// runStorageBench runs both sections, the pipeline section for each
// seed (c.Seed alone when set, else 11, 23 and 47).
func runStorageBench(w io.Writer, c Config) (Report, error) {
	ds, err := faultJobData(c.Points)
	if err != nil {
		return Report{}, err
	}
	clean, cleanRep, err := runFaultJob(ds, spark.Config{}, nil)
	if err != nil {
		return Report{}, err
	}
	report := &StorageBenchResult{
		Dataset: faultJobDataset, Points: ds.Len(), Cores: faultJobCores, Partitions: faultJobPartitions,
		CleanTotalSeconds: cleanRep.Total(),
	}

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "run\ttotal s\tdriver s\toverhead\tcrc fails\tdead probes\tre-repl\tjournaled\tcrashes\tlabels")
	fmt.Fprintf(tw, "clean\t%.3f\t%.3f\t1.00x\t0\t0\t0\t0\t0\tref\n",
		cleanRep.Total(), cleanRep.DriverSeconds)

	arm := func(name string, seed uint64, storage *coredbscan.StorageOptions, fs *hdfs.FileSystem) error {
		res, rep, err := runFaultJob(ds, spark.Config{}, storage)
		if err != nil {
			return err
		}
		match := res.Global.NumPartialClusters == clean.Global.NumPartialClusters &&
			slices.Equal(res.Global.Labels, clean.Global.Labels)
		st := fs.Stats()
		r := StorageBenchRun{
			Name:              name,
			Seed:              seed,
			TotalSeconds:      rep.Total(),
			DriverSeconds:     rep.DriverSeconds,
			Overhead:          rep.Total() / cleanRep.Total(),
			ChecksumFailures:  st.ChecksumFailures,
			DeadNodeProbes:    st.DeadNodeProbes,
			ReReplications:    st.ReReplications,
			JournaledClusters: res.Recovery.JournaledClusters,
			DriverCrashes:     res.Recovery.DriverCrashes,
			LabelsMatch:       match,
		}
		report.Pipeline = append(report.Pipeline, r)
		labels := "identical"
		if !match {
			labels = "DIFFER"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2fx\t%d\t%d\t%d\t%d\t%d\t%s\n",
			name, r.TotalSeconds, r.DriverSeconds, r.Overhead, r.ChecksumFailures,
			r.DeadNodeProbes, r.ReReplications, r.JournaledClusters, r.DriverCrashes, labels)
		return nil
	}

	// Journal only: the fault-free price of recoverability.
	fs, err := faultJobFS(ds, nil)
	if err != nil {
		return Report{}, err
	}
	if err := arm("journal", 0, &coredbscan.StorageOptions{FS: fs, InputFile: "input"}, fs); err != nil {
		return Report{}, err
	}
	for _, seed := range benchSeeds(c.Seed) {
		fs, err := faultJobFS(ds, storageBenchProfile(seed))
		if err != nil {
			return Report{}, err
		}
		if err := arm(fmt.Sprintf("faults seed %d", seed), seed,
			&coredbscan.StorageOptions{FS: fs, InputFile: "input"}, fs); err != nil {
			return Report{}, err
		}
		fs, err = faultJobFS(ds, storageBenchProfile(seed))
		if err != nil {
			return Report{}, err
		}
		if err := arm(fmt.Sprintf("faults+crash seed %d", seed), seed,
			&coredbscan.StorageOptions{FS: fs, InputFile: "input", SimulateDriverCrash: true}, fs); err != nil {
			return Report{}, err
		}
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}

	// Section B: checkpoint vs lineage on an expensive chain. Each
	// partition's upstream chain costs ~2e6 distance computations; the
	// faulty arms fail the first two attempts of every downstream task,
	// so every retry either replays the chain (lineage) or re-reads the
	// checkpoint. (An injector rather than a FaultProfile, so the
	// failures hit only the downstream stage — the quantity being
	// measured is recovery cost, not checkpoint-stage luck.)
	fmt.Fprintln(w, "\ncheckpoint vs lineage (expensive chain, downstream tasks fail twice):")
	tw = newTabWriter(w)
	fmt.Fprintln(tw, "arm\texec s\tdriver s\ttotal s\tfailures")
	chainArm := func(name string, checkpoint, failDownstream bool) error {
		// The downstream foreach is stage 1 when a checkpoint stage ran
		// first, stage 0 otherwise.
		downstream := 0
		if checkpoint {
			downstream = 1
		}
		cfg := spark.Config{Cores: faultJobCores, CoresPerExecutor: faultJobCPE, Seed: 42}
		if failDownstream {
			cfg.FailureInjector = func(stage, partition, attempt int) error {
				if stage == downstream && attempt < 2 {
					return fmt.Errorf("injected")
				}
				return nil
			}
		}
		ctx := spark.NewContext(cfg)
		cfs := hdfs.NewCluster(faultJobBlockSize, 3, faultJobDatanodes)
		indices := make([]int, faultJobPartitions*100)
		for i := range indices {
			indices[i] = i
		}
		rdd := spark.MapPartitionsWithIndex(spark.Parallelize(ctx, indices, faultJobPartitions),
			func(split int, in []int, tc *spark.TaskContext) ([]int, error) {
				tc.Charge(simtime.Work{DistComps: 2_000_000})
				return in, nil
			})
		if checkpoint {
			if err := rdd.Checkpoint(cfs, "chk"); err != nil {
				return err
			}
		}
		err := rdd.ForeachPartition(func(split int, in []int, tc *spark.TaskContext) error {
			tc.Charge(simtime.Work{Elems: int64(len(in))})
			return nil
		})
		if err != nil {
			return err
		}
		rep := ctx.Report()
		r := CheckpointBenchRun{
			Arm:             name,
			ExecutorSeconds: rep.ExecutorSeconds,
			DriverSeconds:   rep.DriverSeconds,
			TotalSeconds:    rep.Total(),
			FailedAttempts:  rep.FailedAttempts(),
		}
		report.Checkpoint = append(report.Checkpoint, r)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d\n",
			name, r.ExecutorSeconds, r.DriverSeconds, r.TotalSeconds, r.FailedAttempts)
		return nil
	}
	for _, a := range []struct {
		name           string
		checkpoint     bool
		failDownstream bool
	}{
		{"lineage clean", false, false},
		{"lineage faulty", false, true},
		{"checkpoint clean", true, false},
		{"checkpoint faulty", true, true},
	} {
		if err := chainArm(a.name, a.checkpoint, a.failDownstream); err != nil {
			return Report{}, err
		}
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}

	rep := Report{
		Method: "same job, same straggler seed; arms add a journaling filesystem, a seeded " +
			"storage-fault profile (replica corrupt 0.3, datanode crash 0.4, 3 replicas on 6 nodes), " +
			"and a driver crash at 50% of the merge",
		Result: report,
	}
	matched := 0
	for _, r := range report.Pipeline {
		if r.LabelsMatch {
			matched++
		}
	}
	rep.gate("labels-identical", matched == len(report.Pipeline),
		"%d of %d journaled/faulty/crashed arms left the labels identical to the clean run",
		matched, len(report.Pipeline))
	return rep, nil
}
