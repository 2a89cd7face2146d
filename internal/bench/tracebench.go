package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"

	coredbscan "sparkdbscan/internal/core"
)

// The trace bench runs the canonical faulty pipeline configuration
// (the same cluster shape the fault and storage benches use) with the
// trace recorder attached, writes the Perfetto trace and the metrics
// snapshot, and prints the critical path — the worked example of the
// observability subsystem. Because every export is a pure function of
// the configuration, running it twice and diffing the files is the CI
// determinism check.

// runTraceBench runs one traced job of points points (default 4000)
// and writes dir/trace.json and dir/metrics.json.
func runTraceBench(w io.Writer, dir string, points int) error {
	const seed = 11
	ds, err := faultJobData(points)
	if err != nil {
		return err
	}
	fs, err := faultJobFS(ds, &hdfs.StorageFaultProfile{
		Seed: seed, CorruptRate: 0.3, DatanodeCrashRate: 0.4,
	})
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	res, _, err := runFaultJob(ds, spark.Config{
		Faults: &spark.FaultProfile{
			Seed: seed, TaskFailRate: 0.3, SlowRate: 0.2,
			ExecutorCrashRate: 0.5, MaxExecutorFailures: 6,
		},
		Tracer: rec,
	}, &coredbscan.StorageOptions{FS: fs, InputFile: "input"})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "traced run: %d points, %d clusters, %d cores, seed %d\n",
		ds.Len(), res.Global.NumClusters, faultJobCores, seed)
	fmt.Fprintf(w, "phases: read %.3fs  tree %.3fs  bcast %.3fs  exec %.3fs  journal %.3fs  merge %.3fs  total %.3fs\n",
		res.Phases.ReadTransform, res.Phases.TreeBuild, res.Phases.Broadcast,
		res.Phases.Executors, res.Phases.Journal, res.Phases.Merge, res.Phases.Total())
	if err := rec.WriteCriticalPath(w); err != nil {
		return err
	}

	for _, export := range []struct {
		file  string
		write func(io.Writer) error
	}{
		{"trace.json", rec.WriteChrome},
		{"metrics.json", rec.WriteMetrics},
	} {
		path := filepath.Join(dir, export.file)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := export.write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}
