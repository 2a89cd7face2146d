// Package cli implements the command-line tools (datagen, dbscan,
// benchrunner) as testable functions; the cmd/ mains are thin wrappers.
// Each Run* function parses its own flag set, writes human-readable
// output to stdout, and returns an error instead of exiting.
package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sparkdbscan/internal/bench"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/knng"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/serve"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"

	coredbscan "sparkdbscan/internal/core"
)

var datasetNames = []string{"c10k", "c100k", "r10k", "r100k", "r1m"}

// RunDatagen implements cmd/datagen.
func RunDatagen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		name   = fs.String("dataset", "all", "dataset name (c10k, c100k, r10k, r100k, r1m; 'all' = those five) or an embedding mixture (embed4k, embed20k)")
		outDir = fs.String("out", ".", "output directory")
		format = fs.String("format", "txt", "output format: txt or bin")
		scale  = fs.Float64("scale", 1.0, "shrink datasets to this fraction of their Table I size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "txt" && *format != "bin" {
		return fmt.Errorf("datagen: unknown format %q (want txt or bin)", *format)
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("datagen: scale must be in (0, 1], got %g", *scale)
	}
	names := datasetNames
	if *name != "all" {
		names = []string{*name}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("datagen: %w", err)
	}
	for _, n := range names {
		var (
			ds           *geom.Dataset
			eps          float64
			minPts       int
			suggestion   string
			spec, serr   = quest.ByName(n)
			espec, eserr = quest.EmbedByName(n)
		)
		switch {
		case serr == nil:
			if *scale < 1 {
				spec = spec.Scaled(int(float64(spec.N) * *scale))
			}
			var err error
			if ds, err = quest.Generate(spec); err != nil {
				return err
			}
			eps, minPts = quest.TableIEps, quest.TableIMinPts
		case eserr == nil:
			if *scale < 1 {
				espec = espec.Scaled(int(float64(espec.N) * *scale))
			}
			var err error
			if ds, err = quest.GenerateEmbedding(espec); err != nil {
				return err
			}
			eps, minPts = espec.Eps, espec.MinPts
			suggestion = " -mode knn"
		default:
			return serr
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s.%s", n, *format))
		if err := saveDataset(ds, path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d points, %d dims -> %s (cluster with -eps %g -minpts %d%s)\n",
			n, ds.Len(), ds.Dim, path, eps, minPts, suggestion)
	}
	return nil
}

// RunDBSCAN implements cmd/dbscan.
func RunDBSCAN(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbscan", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in     = fs.String("in", "", "input file (.txt or .bin); required")
		out    = fs.String("out", "", "label output file (default: summary only)")
		eps    = fs.Float64("eps", 25, "neighbourhood radius")
		minPts = fs.Int("minpts", 5, "density threshold")
		cores  = fs.Int("cores", 0, "virtual cores for distributed run; 0 = sequential")
		parts  = fs.Int("partitions", 0, "partitions (default = cores)")
		paper  = fs.Bool("paper", false, "use the paper's SEED rule and Algorithm 4 merge (default: exact seeds and the canonical parallel merge)")
		prune  = fs.Int("prune", 0, "cap neighbour lists at this size (0 = exact search)")
		real   = fs.Bool("realtime", false, "wall-clock timing instead of the virtual cluster")

		partition = fs.String("partition", "range", "spatial partitioning: range (broadcast the dataset) or cell (eps-halo shuffle)")
		cellPts   = fs.Int("cellpoints", 0, "cell mode: target home points per cell (0 = default)")

		mergeWorkers = fs.Int("mergeworkers", 0, "driver cores for the parallel merge (0 = default 4)")

		traceOut   = fs.String("trace", "", "write a Chrome/Perfetto trace of the simulated run to this JSON file")
		metricsOut = fs.String("metrics", "", "write the metrics snapshot (incl. critical path) to this JSON file")
		gantt      = fs.Bool("gantt", false, "print a per-core ASCII Gantt chart of every executor stage")

		serveDemo  = fs.Bool("serve-demo", false, "after clustering, freeze a serving snapshot and answer a few sample queries through a live server")
		serveChaos = fs.Uint64("serve-chaos", 0, "with -serve-demo: chaos-profile seed; inject worker faults during the demo to show supervision (0 = off)")
		serveLive  = fs.Bool("serve-live", false, "after clustering, wrap the result in a mutable live model, apply inserts/deletes through a live server, reconcile, and verify against a from-scratch rerun")

		mode       = fs.String("mode", "radius", "clustering mode: radius (kd-tree DBSCAN) or knn (kNN-graph DBSCAN for high-dimensional data)")
		k          = fs.Int("k", 16, "knn mode: graph degree (must be >= minpts-1)")
		knnAlgo    = fs.String("knnalgo", "exact", "knn mode: graph builder, exact or nndescent")
		knnSeed    = fs.Uint64("knnseed", 1, "knn mode: sampling seed for -knnalgo nndescent (same seed, same labels)")
		knnWorkers = fs.Int("knnworkers", 0, "knn mode: build/cluster worker goroutines (0 = all host cores; labels are identical at any count)")
		knnMutual  = fs.Bool("knnmutual", false, "knn mode: require core-core edges to be mutual (conservative variant)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("dbscan: -in is required")
	}
	if *mode != "radius" && *mode != "knn" {
		return fmt.Errorf("dbscan: unknown -mode %q (want radius or knn)", *mode)
	}
	knnMode := *mode == "knn"
	if !knnMode {
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*knnAlgo != "exact", "-knnalgo"},
			{*knnSeed != 1, "-knnseed"},
			{*knnWorkers != 0, "-knnworkers"},
			{*knnMutual, "-knnmutual"},
		} {
			if bad.set {
				return fmt.Errorf("dbscan: %s needs -mode knn", bad.flag)
			}
		}
	}
	if knnMode && *cores > 0 {
		return fmt.Errorf("dbscan: -mode knn is a single-process mode; drop -cores (use -knnworkers for parallelism)")
	}
	observing := *traceOut != "" || *metricsOut != "" || *gantt
	if observing && *cores <= 0 {
		return fmt.Errorf("dbscan: -trace/-metrics/-gantt need a distributed run (-cores > 0)")
	}
	if observing && *real {
		return fmt.Errorf("dbscan: -trace/-metrics/-gantt record the simulated clock; drop -realtime")
	}
	partMode, err := coredbscan.ParsePartitionMode(*partition)
	if err != nil {
		return fmt.Errorf("dbscan: %w", err)
	}
	if partMode != coredbscan.PartRange && *cores <= 0 {
		return fmt.Errorf("dbscan: -partition=%s needs a distributed run (-cores > 0)", partMode)
	}
	if *mergeWorkers != 0 && *cores <= 0 {
		return fmt.Errorf("dbscan: -mergeworkers needs a distributed run (-cores > 0)")
	}
	if *mergeWorkers != 0 && *paper {
		return fmt.Errorf("dbscan: -paper runs Algorithm 4 on one driver core; drop -mergeworkers")
	}
	if *mergeWorkers < 0 {
		return fmt.Errorf("dbscan: -mergeworkers must be >= 0, got %d", *mergeWorkers)
	}
	if *serveChaos != 0 && !*serveDemo {
		return fmt.Errorf("dbscan: -serve-chaos injects faults into the serving demo; it needs -serve-demo")
	}
	ds, err := loadDataset(*in)
	if err != nil {
		return err
	}

	var labels []int32
	var coreFlags []bool // sequential runs know the core points; Freeze re-derives otherwise
	numClusters, numNoise, partials := 0, 0, 0
	var timing coredbscan.Phases
	var dist coredbscan.DistStats
	mergeInfo := ""
	params := dbscan.Params{Eps: *eps, MinPts: *minPts}
	if knnMode {
		var g *knng.Graph
		buildStart := time.Now()
		switch *knnAlgo {
		case "exact":
			g, err = knng.BuildExact(ds, *k, *knnWorkers)
		case "nndescent":
			g, err = knng.BuildNNDescent(ds, *k, knng.ApproxOptions{Seed: *knnSeed, Workers: *knnWorkers})
		default:
			return fmt.Errorf("dbscan: unknown -knnalgo %q (want exact or nndescent)", *knnAlgo)
		}
		if err != nil {
			return err
		}
		buildTime := time.Since(buildStart)
		edges := knng.EdgeOneSided
		if *knnMutual {
			edges = knng.EdgeMutual
		}
		res, err := knng.DBSCAN(g, params, knng.Options{Workers: *knnWorkers, Edges: edges})
		if err != nil {
			return err
		}
		labels, numClusters, numNoise = res.Labels, res.NumClusters, res.NumNoise
		coreFlags = res.Core
		mergeInfo = fmt.Sprintf("knn graph: %s, k=%d, %s edges (built in %s)",
			*knnAlgo, *k, edges, buildTime.Round(time.Millisecond))
	} else if *cores <= 0 {
		if err := dbscan.Check(ds, params); err != nil {
			return err
		}
		res, err := dbscan.Run(ds, kdtree.Build(ds), params)
		if err != nil {
			return err
		}
		labels, numClusters, numNoise = res.Labels, res.NumClusters, res.NumNoise
		coreFlags = res.Core
	} else {
		mode := spark.Virtual
		if *real {
			mode = spark.Real
		}
		var rec *trace.Recorder
		if observing {
			rec = trace.NewRecorder()
		}
		sctx := spark.NewContext(spark.Config{Cores: *cores, Mode: mode, Tracer: rec})
		mergeAlgo := coredbscan.MergeParallel
		if *paper {
			mergeAlgo = coredbscan.MergePaper
		}
		res, err := coredbscan.Run(sctx, ds, coredbscan.Config{
			Params:       params,
			Partitions:   *parts,
			Merge:        coredbscan.MergeOptions{Algo: mergeAlgo, Workers: *mergeWorkers},
			MaxNeighbors: *prune,
			Partitioning: partMode,
			Cell:         coredbscan.CellOptions{TargetPointsPerCell: *cellPts},
		})
		if err != nil {
			return err
		}
		labels = res.Global.Labels
		numClusters, numNoise = res.Global.NumClusters, res.Global.NumNoise
		partials = res.Global.NumPartialClusters
		timing = res.Phases
		dist = res.Dist
		mergeInfo = fmt.Sprintf("merge: %s (%d merges)", mergeAlgo, res.Global.NumMerges)
		if mergeAlgo == coredbscan.MergeParallel {
			workers := coredbscan.DefaultMergeWorkers
			if *mergeWorkers > 0 {
				workers = *mergeWorkers
			}
			mergeInfo = fmt.Sprintf("merge: parallel on %d driver cores (%d merges)",
				workers, res.Global.NumMerges)
		}

		if *gantt {
			for _, s := range rec.Stages() {
				fmt.Fprintf(stdout, "stage %d %q (makespan %.4fs):\n", s.ID, s.Name, s.Makespan())
				fmt.Fprint(stdout, s.Sched.Gantt(72))
			}
		}
		if *traceOut != "" {
			if err := writeExport(*traceOut, rec.WriteChrome); err != nil {
				return fmt.Errorf("dbscan: writing trace: %w", err)
			}
			fmt.Fprintf(stdout, "trace written to %s (load in https://ui.perfetto.dev)\n", *traceOut)
		}
		if *metricsOut != "" {
			if err := writeExport(*metricsOut, rec.WriteMetrics); err != nil {
				return fmt.Errorf("dbscan: writing metrics: %w", err)
			}
			fmt.Fprintf(stdout, "metrics written to %s\n", *metricsOut)
		}
	}

	fmt.Fprintf(stdout, "points:   %d (dim %d)\n", ds.Len(), ds.Dim)
	fmt.Fprintf(stdout, "clusters: %d\n", numClusters)
	fmt.Fprintf(stdout, "noise:    %d\n", numNoise)
	if knnMode {
		fmt.Fprintf(stdout, "%s\n", mergeInfo)
	}
	if *cores > 0 {
		fmt.Fprintf(stdout, "partial clusters: %d\n", partials)
		fmt.Fprintf(stdout, "%s\n", mergeInfo)
		fmt.Fprintf(stdout, "time: driver %.2fs + executors %.2fs = %.2fs\n",
			timing.Driver(), timing.Executors, timing.Total())
		fmt.Fprintf(stdout, "partitioning: %s, %d tasks, broadcast %d B/executor\n",
			dist.Mode, dist.Tasks, dist.BroadcastBytes)
		if dist.Mode == coredbscan.PartCell.String() {
			fmt.Fprintf(stdout, "  cells: %d non-empty (grid %d, %d axes split at side %.3g, ring %d)\n",
				dist.Cells, dist.GridCells, dist.SplitAxes, dist.CellSide, dist.Ring)
			fmt.Fprintf(stdout, "  shuffle: %d B, %d halo replicas\n",
				dist.ShuffleBytes, dist.HaloPoints)
		}
	}
	printClusterSizes(stdout, labels, numClusters)

	if *serveDemo {
		if err := runServeDemo(stdout, ds, labels, coreFlags, params, *serveChaos); err != nil {
			return fmt.Errorf("dbscan: serve demo: %w", err)
		}
	}

	if *serveLive {
		if knnMode {
			return fmt.Errorf("dbscan: -serve-live needs -mode radius (the live model re-expands through eps-neighbourhoods)")
		}
		if err := runServeLiveDemo(stdout, ds, labels, params); err != nil {
			return fmt.Errorf("dbscan: serve-live demo: %w", err)
		}
	}

	if *out != "" {
		if err := writeLabels(labels, *out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "labels written to %s\n", *out)
	}
	return nil
}

// RunBench implements cmd/benchrunner: the paper experiments (-exp),
// or the registered benches (-bench), which write BENCH_<name>.json
// envelopes to -out.
func RunBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		exp   = fs.String("exp", "all", "experiment id, comma-separated list, or 'all'")
		scale = fs.Float64("scale", 1.0, "dataset scale factor in (0, 1]")
		list  = fs.Bool("list", false, "list experiments and exit")
		seed  = fs.Uint64("seed", 0, "experiments: straggler seed; benches: the bench's fault/chaos/mutation/sampling seed (0 = default)")

		benches = fs.String("bench", "", "run benches instead of experiments: comma-separated names (kdtree, faults, storage, serve, chaos, partition, merge, knn, live, trace) or 'all' (every BENCH_*.json; trace writes trace.json and metrics.json)")
		points  = fs.Int("points", 0, "bench dataset points (0 = each bench's default)")
		smoke   = fs.Bool("smoke", false, "shrink each bench to a seconds-long CI run")
		out     = fs.String("out", ".", "directory the benches write their reports to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *benches != "" {
		for _, f := range []string{"exp", "scale", "list"} {
			if set[f] {
				return fmt.Errorf("benchrunner: -%s selects the paper experiments; drop it or -bench", f)
			}
		}
		if *points < 0 {
			return fmt.Errorf("benchrunner: -points must be >= 0, got %d", *points)
		}
		return bench.RunBenches(stdout, *benches,
			bench.Config{Points: *points, Seed: *seed, Smoke: *smoke}, *out)
	}
	for _, f := range []string{"points", "smoke", "out"} {
		if set[f] {
			return fmt.Errorf("benchrunner: -%s configures -bench", f)
		}
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("benchrunner: scale must be in (0, 1], got %g", *scale)
	}
	var experiments []bench.Experiment
	if *exp == "all" {
		experiments = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
	}
	opts := bench.Options{Scale: *scale, Seed: *seed}
	for _, e := range experiments {
		fmt.Fprintf(stdout, "=== %s: %s\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "    paper: %s\n\n", e.Paper)
		start := time.Now()
		if err := e.Run(opts, stdout); err != nil {
			return fmt.Errorf("benchrunner: %s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "\n    (generated in %s at scale %g)\n\n",
			time.Since(start).Round(time.Millisecond), *scale)
	}
	return nil
}

// ---- helpers ----

// runServeDemo is the -serve-demo smoke path: freeze the clustering
// just computed into an immutable snapshot, stand up a live serving
// pool, answer a few in-distribution probes plus one far-away probe
// (which must come back noise), and print the serving stats. A
// non-zero chaosSeed additionally arms the deterministic fault
// injector and replays a burst of queries through the faulty pool to
// show supervision keeping answers correct.
func runServeDemo(stdout io.Writer, ds *geom.Dataset, labels []int32, core []bool, p dbscan.Params, chaosSeed uint64) error {
	if ds.Len() == 0 {
		return fmt.Errorf("empty dataset")
	}
	model, err := serve.Freeze(ds, labels, core, nil, p)
	if err != nil {
		return err
	}
	srv := serve.NewServer(model, serve.Options{})
	defer srv.Close()
	fmt.Fprintf(stdout, "\nserving demo: snapshot of %d points, %d clusters, %d core points\n",
		model.NumPoints(), model.NumClusters(), model.NumCore())
	n := ds.Len()
	for _, i := range []int32{0, int32(n / 2), int32(n - 1)} {
		a, err := srv.Assign(context.Background(), ds.At(i))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  point %d -> cluster %d (core %v, generation %d)\n", i, a.Cluster, a.Core, a.Generation)
	}
	far := make([]float64, ds.Dim)
	for _, v := range ds.Coords {
		if v > far[0] {
			far[0] = v
		}
	}
	for j := range far {
		far[j] = far[0] + 100*p.Eps
	}
	a, err := srv.Assign(context.Background(), far)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  far-away probe -> cluster %d (core %v)\n", a.Cluster, a.Core)

	if chaosSeed != 0 {
		const burst = 400
		fmt.Fprintf(stdout, "  chaos demo (seed %d): replaying %d queries through a fault-injected pool...\n", chaosSeed, burst)
		chaotic := serve.NewServer(model, serve.Options{
			Chaos: &serve.ChaosProfile{
				Seed:     chaosSeed,
				KillRate: 0.01, StallRate: 0.01, SlowRate: 0.02, PanicRate: 0.005,
				StallFor: 10 * time.Millisecond, SlowFor: 2 * time.Millisecond,
			},
			StallTimeout:       5 * time.Millisecond,
			SupervisorInterval: time.Millisecond,
			Hedge:              true,
		})
		defer chaotic.Close()
		var served, wrong int
		for q := 0; q < burst; q++ {
			i := int32(q * ds.Len() / burst)
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			a, err := chaotic.Assign(ctx, ds.At(i))
			cancel()
			if err != nil {
				continue // a fault cost this answer its latency budget, never its correctness
			}
			served++
			if a.Cluster != labels[i] {
				wrong++
			}
		}
		st := chaotic.Stats()
		fmt.Fprintf(stdout, "  chaos: %d/%d answered, %d wrong; %d worker deaths, %d respawns, %d stalls deposed, %d poisoned, %d hedges (%d won)\n",
			served, burst, wrong, st.WorkerDeaths, st.Respawns, st.WorkerStalls, st.Panicked, st.Hedges, st.HedgeWins)
		if wrong > 0 {
			return fmt.Errorf("chaos demo returned %d wrong answers", wrong)
		}
	}

	st := srv.Stats()
	fmt.Fprintf(stdout, "  served %d queries in %d batches, p50 latency %s\n",
		st.Completed, st.Batches, st.LatencyP50)
	return nil
}

// runServeLiveDemo is the -serve-live smoke path: wrap the clustering
// just computed in a mutable live model, apply a handful of inserts
// and deletions through the live server while answering queries, force a reconciliation, and verify the final labels match a
// from-scratch DBSCAN on the surviving points.
func runServeLiveDemo(stdout io.Writer, ds *geom.Dataset, labels []int32, p dbscan.Params) error {
	if ds.Len() == 0 {
		return fmt.Errorf("empty dataset")
	}
	m, err := live.NewModel(ds, labels, nil, p, live.Options{})
	if err != nil {
		return err
	}
	srv := live.NewServer(m, serve.Options{})
	defer srv.Close()
	st := m.Stats()
	fmt.Fprintf(stdout, "\nlive demo: mutable model over %d points (epoch %d)\n", st.Live, st.Epoch)

	// Insert a few points jittered off existing ones — they land inside
	// clusters — and delete a couple of originals.
	n := ds.Len()
	nextID := int64(n)
	for k := 0; k < 5; k++ {
		src := ds.At(int32(k * n / 5))
		pt := make([]float64, ds.Dim)
		for d := range pt {
			pt[d] = src[d] + 0.1*p.Eps*float64(d%2*2-1)
		}
		if err := srv.Insert(nextID, pt); err != nil {
			return err
		}
		a, err := srv.Assign(context.Background(), pt)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  insert id %d -> cluster %d (core %v, epoch %d)\n",
			nextID, a.Cluster, a.Core, a.Epoch)
		nextID++
	}
	for _, id := range []int64{0, int64(n / 2)} {
		if err := srv.Delete(id); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  delete id %d (epoch %d)\n", id, m.Epoch())
	}

	rst, err := m.ReconcileNow()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  reconcile: %d survivors -> %d clusters in %s (drift was %.4f)\n",
		rst.Points, rst.Clusters, rst.Duration.Round(time.Millisecond), rst.Drift)

	g := m.Pin()
	defer g.Close()
	sds, slabels := g.Survivors()
	res, err := dbscan.Run(sds, kdtree.Build(sds), p)
	if err != nil {
		return err
	}
	ari, err := eval.AdjustedRandIndex(slabels, res.Labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  verify: ARI vs from-scratch DBSCAN on %d survivors = %.6f\n", sds.Len(), ari)
	if ari < 0.9999 {
		return fmt.Errorf("post-reconcile ARI %.6f below 0.9999", ari)
	}
	sstats := m.Stats()
	fmt.Fprintf(stdout, "  model: epoch %d, %d inserts, %d deletes, %d reconciles\n",
		sstats.Epoch, sstats.Inserts, sstats.Deletes, sstats.Reconciles)
	return nil
}

// writeExport creates path and streams one of the trace exports to it.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func loadDataset(path string) (*geom.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return geom.ReadBinary(f)
	}
	return geom.ReadText(f)
}

func saveDataset(ds *geom.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".bin") {
		werr = geom.WriteBinary(f, ds)
	} else {
		werr = geom.WriteText(f, ds)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func writeLabels(labels []int32, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range labels {
		if _, err := w.WriteString(strconv.Itoa(int(l)) + "\n"); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printClusterSizes(stdout io.Writer, labels []int32, numClusters int) {
	sizes := make([]int, numClusters)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	shown := len(sizes)
	if shown > 10 {
		shown = 10
	}
	for id := 0; id < shown; id++ {
		fmt.Fprintf(stdout, "  cluster %d: %d points\n", id, sizes[id])
	}
	if len(sizes) > shown {
		fmt.Fprintf(stdout, "  ... and %d more clusters\n", len(sizes)-shown)
	}
}
