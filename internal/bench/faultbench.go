package bench

import (
	"fmt"
	"io"
	"slices"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/spark"

	coredbscan "sparkdbscan/internal/core"
)

// The fault bench quantifies what failure costs: the same clustering
// job runs once clean and once per fault seed under a deterministic
// fault profile (task failures, slow tasks, executor crashes,
// blacklisting), and the report contrasts the makespans. The labels
// column is the invariant the whole layer is built around — faults move
// time, never results.

// The fault, storage and trace benches share one job: a c10k draw
// (default 4000 points) clustered at Table I parameters over 8
// partitions on 16 cores in executors of 4, straggler seed 42. Its
// input, when stored, is replicated 3 ways on 6 datanodes in 16 KiB
// blocks.
const (
	faultJobDataset    = "c10k"
	faultJobCores      = 16
	faultJobCPE        = 4
	faultJobPartitions = 8
	faultJobBlockSize  = 1 << 14
	faultJobDatanodes  = 6
)

// faultJobData generates the shared job's dataset.
func faultJobData(points int) (*geom.Dataset, error) {
	if points < 100 {
		points = 4000
	}
	spec, err := quest.ByName(faultJobDataset)
	if err != nil {
		return nil, err
	}
	return quest.Generate(spec.Scaled(points))
}

// faultJobFS builds the replicated filesystem holding the job's input
// under storage-fault profile p (nil: none).
func faultJobFS(ds *geom.Dataset, p *hdfs.StorageFaultProfile) (*hdfs.FileSystem, error) {
	fs := hdfs.NewCluster(faultJobBlockSize, 3, faultJobDatanodes)
	if err := fs.Write("input", make([]byte, ds.SizeBytes()), nil); err != nil {
		return nil, err
	}
	fs.SetFaultProfile(p)
	return fs, nil
}

// runFaultJob runs the shared job over ds on a fresh context; cfg
// supplies any faults or tracer, storage any filesystem.
func runFaultJob(ds *geom.Dataset, cfg spark.Config, storage *coredbscan.StorageOptions) (*coredbscan.Result, spark.Report, error) {
	cfg.Cores, cfg.CoresPerExecutor, cfg.Seed = faultJobCores, faultJobCPE, 42
	sctx := spark.NewContext(cfg)
	res, err := coredbscan.Run(sctx, ds, coredbscan.Config{
		Params:     dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts},
		Partitions: faultJobPartitions,
		Storage:    storage,
	})
	if err != nil {
		return nil, spark.Report{}, err
	}
	return res, sctx.Report(), nil
}

// faultBenchProfile is the injected fault mix: moderately flaky tasks,
// occasional slow executors, and a coin-flip executor crash per stage.
func faultBenchProfile(seed uint64) *spark.FaultProfile {
	return &spark.FaultProfile{
		Seed:                seed,
		TaskFailRate:        0.3,
		SlowRate:            0.2,
		ExecutorCrashRate:   0.5,
		MaxExecutorFailures: 2,
	}
}

// FaultBenchRun is one faulty arm of the comparison.
type FaultBenchRun struct {
	Seed             uint64   `json:"seed"`
	ExecutorSeconds  float64  `json:"executor_seconds"`
	Overhead         float64  `json:"overhead_vs_clean"` // faulty/clean
	FailedAttempts   int      `json:"failed_attempts"`
	RetrySeconds     float64  `json:"retry_seconds"`
	BackoffSeconds   float64  `json:"backoff_seconds"`
	ExecutorRestarts int      `json:"executor_restarts"`
	BlacklistEvents  []string `json:"blacklist_events"`
	LabelsMatch      bool     `json:"labels_match_clean"`
}

// FaultBenchResult is the BENCH_faults.json result body.
type FaultBenchResult struct {
	Dataset              string          `json:"dataset"`
	Points               int             `json:"points"`
	Cores                int             `json:"cores"`
	CoresPerExecutor     int             `json:"cores_per_executor"`
	Partitions           int             `json:"partitions"`
	CleanExecutorSeconds float64         `json:"clean_executor_seconds"`
	Runs                 []FaultBenchRun `json:"runs"`
}

// runFaultBench runs the clean-vs-faulty comparison for each seed
// (c.Seed alone when set, else 11, 23 and 47).
func runFaultBench(w io.Writer, c Config) (Report, error) {
	ds, err := faultJobData(c.Points)
	if err != nil {
		return Report{}, err
	}
	clean, cleanRep, err := runFaultJob(ds, spark.Config{}, nil)
	if err != nil {
		return Report{}, err
	}
	report := &FaultBenchResult{
		Dataset: faultJobDataset, Points: ds.Len(),
		Cores: faultJobCores, CoresPerExecutor: faultJobCPE, Partitions: faultJobPartitions,
		CleanExecutorSeconds: cleanRep.ExecutorSeconds,
	}

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "run\texec s\toverhead\tfailures\tretry s\tbackoff s\trestarts\tblacklist\tlabels")
	fmt.Fprintf(tw, "clean\t%.3f\t1.00x\t0\t0\t0\t0\t0\tref\n", cleanRep.ExecutorSeconds)
	for _, seed := range benchSeeds(c.Seed) {
		res, rep, err := runFaultJob(ds, spark.Config{Faults: faultBenchProfile(seed)}, nil)
		if err != nil {
			return Report{}, err
		}
		var retry, backoff float64
		for _, st := range rep.Stages {
			retry += st.RetrySeconds
			backoff += st.BackoffSeconds
		}
		match := res.Global.NumPartialClusters == clean.Global.NumPartialClusters &&
			slices.Equal(res.Global.Labels, clean.Global.Labels)
		r := FaultBenchRun{
			Seed:             seed,
			ExecutorSeconds:  rep.ExecutorSeconds,
			Overhead:         rep.ExecutorSeconds / cleanRep.ExecutorSeconds,
			FailedAttempts:   rep.FailedAttempts(),
			RetrySeconds:     retry,
			BackoffSeconds:   backoff,
			ExecutorRestarts: rep.ExecutorRestarts,
			BlacklistEvents:  make([]string, 0, len(rep.BlacklistEvents)),
			LabelsMatch:      match,
		}
		for _, ev := range rep.BlacklistEvents {
			r.BlacklistEvents = append(r.BlacklistEvents, ev.String())
		}
		report.Runs = append(report.Runs, r)
		labels := "identical"
		if !match {
			labels = "DIFFER"
		}
		fmt.Fprintf(tw, "seed %d\t%.3f\t%.2fx\t%d\t%.3f\t%.3f\t%d\t%d\t%s\n",
			seed, r.ExecutorSeconds, r.Overhead, r.FailedAttempts,
			r.RetrySeconds, r.BackoffSeconds, r.ExecutorRestarts,
			len(r.BlacklistEvents), labels)
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}
	rep := Report{
		Method: "same job, same straggler seed; each arm adds a seeded fault profile " +
			"(task fail 0.3, slow 0.2 x4, executor crash 0.5/stage, blacklist after 2)",
		Result: report,
	}
	matched := 0
	for _, r := range report.Runs {
		if r.LabelsMatch {
			matched++
		}
	}
	rep.gate("labels-identical", matched == len(report.Runs),
		"%d of %d fault seeds left the labels identical to the clean run", matched, len(report.Runs))
	return rep, nil
}

// benchSeeds is the seed list of the multi-seed benches: seed alone
// when set, else the three recorded seeds.
func benchSeeds(seed uint64) []uint64 {
	if seed != 0 {
		return []uint64{seed}
	}
	return []uint64{11, 23, 47}
}
