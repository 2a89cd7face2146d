// Benchmarks: one per paper table/figure (reporting the figure's key
// quantity as a custom metric) plus the ablations DESIGN.md calls out.
// These run on scaled-down datasets so `go test -bench=.` finishes in
// minutes; cmd/benchrunner regenerates the figures at paper scale and
// EXPERIMENTS.md records those results.
package sparkdbscan

import (
	"testing"

	"sparkdbscan/internal/bench"
	"sparkdbscan/internal/core"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/mapreduce"
	"sparkdbscan/internal/mrdbscan"
	"sparkdbscan/internal/pdsdbscan"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

func benchDataset(b *testing.B, name string, n int) *geom.Dataset {
	b.Helper()
	spec, err := quest.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := quest.Generate(spec.Scaled(n))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

var benchParams = dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}

// ---------- Paper tables and figures ----------

// BenchmarkTable1Datagen measures generating the Table I workloads
// (scaled); datagen feeds every other experiment.
func BenchmarkTable1Datagen(b *testing.B) {
	for _, name := range []string{"c10k", "r10k"} {
		b.Run(name, func(b *testing.B) {
			spec, err := quest.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			spec = spec.Scaled(5000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quest.Generate(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5KDTreeShare measures the kd-tree construction share of a
// whole run (Figure 5), reporting it in per-mille.
func BenchmarkFig5KDTreeShare(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	var perMille float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sctx := spark.NewContext(spark.Config{Cores: 8, Seed: 1})
		res, err := core.Run(sctx, ds, core.Config{Params: benchParams, Partitions: 8})
		if err != nil {
			b.Fatal(err)
		}
		perMille = res.Phases.TreeBuild / res.Phases.Total() * 1000
	}
	b.ReportMetric(perMille, "treebuild-permille")
}

// BenchmarkFig6TimeSplit measures the driver/executor split and the
// partial-cluster count across the Figure 6 core sweep.
func BenchmarkFig6TimeSplit(b *testing.B) {
	ds := benchDataset(b, "r10k", 5000)
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(byCores(cores), func(b *testing.B) {
			var driver, exec float64
			var partials int
			for i := 0; i < b.N; i++ {
				sctx := spark.NewContext(spark.Config{Cores: cores, Seed: 1})
				res, err := core.Run(sctx, ds, core.Config{
					Params:     benchParams,
					Partitions: cores,
					Merge:      core.MergeOptions{Algo: core.MergePaper},
				})
				if err != nil {
					b.Fatal(err)
				}
				driver = res.Phases.Driver()
				exec = res.Phases.Executors
				partials = res.Global.NumPartialClusters
			}
			b.ReportMetric(driver, "driver-simsec")
			b.ReportMetric(exec, "executor-simsec")
			b.ReportMetric(float64(partials), "partial-clusters")
		})
	}
}

// BenchmarkFig7MapReduceVsSpark runs the Figure 7 comparison at one
// core count and reports the MR/Spark ratio.
func BenchmarkFig7MapReduceVsSpark(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7Series(bench.Options{Scale: 0.1}, []int{4})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].MRSeconds / rows[0].SparkSeconds
	}
	b.ReportMetric(ratio, "mr-over-spark")
}

// BenchmarkFig8Speedup measures the executor-only and total speedups of
// Figure 8 at 8 cores.
func BenchmarkFig8Speedup(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	run := func(cores int) *core.Result {
		sctx := spark.NewContext(spark.Config{Cores: cores, Seed: 1})
		res, err := core.Run(sctx, ds, core.Config{Params: benchParams, Partitions: cores})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var execSp, totalSp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := run(1)
		fast := run(8)
		execSp = base.Phases.Executors / fast.Phases.Executors
		totalSp = base.Phases.Total() / fast.Phases.Total()
	}
	b.ReportMetric(execSp, "exec-speedup-8c")
	b.ReportMetric(totalSp, "total-speedup-8c")
}

// ---------- Ablations (DESIGN.md §6) ----------

// BenchmarkAblationIndex compares the paper's O(n log n) kd-tree DBSCAN
// against the O(n²) brute-force baseline — real wall time.
func BenchmarkAblationIndex(b *testing.B) {
	ds := benchDataset(b, "c10k", 3000)
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree := kdtree.Build(ds)
			if _, err := dbscan.Run(ds, tree, benchParams); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		bf := kdtree.NewBruteForce(ds)
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.Run(ds, bf, benchParams); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSeedMode compares the two SEED-placement rules
// (§IV-A): the paper's one-seed-per-partition rule and the exact rule
// that records every foreign point reached.
func BenchmarkAblationSeedMode(b *testing.B) {
	ds := benchDataset(b, "r10k", 4000)
	tree := kdtree.Build(ds)
	part, err := core.NewPartitioner(ds.Len(), 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.SeedMode{core.SeedSingle, core.SeedExact} {
		b.Run(mode.String(), func(b *testing.B) {
			var seeds int
			for i := 0; i < b.N; i++ {
				seeds = 0
				for s := 0; s < part.Parts(); s++ {
					lr, err := core.LocalDBSCAN(ds, tree, part, s,
						core.LocalOptions{Params: benchParams, SeedMode: mode})
					if err != nil {
						b.Fatal(err)
					}
					for _, pc := range lr.Clusters {
						seeds += len(pc.Seeds)
					}
				}
			}
			b.ReportMetric(float64(seeds), "seeds")
		})
	}
}

// BenchmarkAblationMerge compares the two seed/merge pairs: Algorithm 4
// as printed over SeedSingle partials against the canonical union-find
// merge over SeedExact partials.
func BenchmarkAblationMerge(b *testing.B) {
	ds := benchDataset(b, "r10k", 5000)
	tree := kdtree.Build(ds)
	part, err := core.NewPartitioner(ds.Len(), 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, pair := range []struct {
		seed core.SeedMode
		algo core.MergeAlgo
	}{{core.SeedSingle, core.MergePaper}, {core.SeedExact, core.MergeParallel}} {
		var partials []core.PartialCluster
		for s := 0; s < part.Parts(); s++ {
			lr, err := core.LocalDBSCAN(ds, tree, part, s,
				core.LocalOptions{Params: benchParams, SeedMode: pair.seed})
			if err != nil {
				b.Fatal(err)
			}
			partials = append(partials, lr.Clusters...)
		}
		b.Run(pair.algo.String(), func(b *testing.B) {
			var clusters int
			for i := 0; i < b.N; i++ {
				g := core.Merge(partials, ds.Len(), core.MergeOptions{Algo: pair.algo})
				clusters = g.NumClusters
			}
			b.ReportMetric(float64(clusters), "clusters")
		})
	}
}

// BenchmarkAblationPruning compares full vs pruned ("pruning branches")
// range search inside the local clustering (§V-E).
func BenchmarkAblationPruning(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	tree := kdtree.Build(ds)
	part, err := core.NewPartitioner(ds.Len(), 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  int
	}{{"full", 0}, {"pruned", 4 * benchParams.MinPts}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < part.Parts(); s++ {
					if _, err := core.LocalDBSCAN(ds, tree, part, s, core.LocalOptions{
						Params:       benchParams,
						MaxNeighbors: tc.max,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationBroadcast compares shipping the dataset to executors
// once via broadcast against serializing it into every task closure —
// the §IV-B motivation — in simulated seconds under the default model.
func BenchmarkAblationBroadcast(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	model := simtime.DefaultModel()
	payload := ds.SizeBytes()
	for _, tc := range []struct {
		name  string
		tasks int
	}{{"cores8", 8}, {"cores64", 64}, {"cores512", 512}} {
		b.Run(tc.name, func(b *testing.B) {
			var bcast, ship float64
			for i := 0; i < b.N; i++ {
				// Broadcast: one driver serialization + one
				// deserialization per executor (TorrentBroadcast
				// peers handle distribution).
				bcast = float64(payload)*model.SerByte + float64(payload)*model.BcastDeser
				// Naive shipping: the payload rides in every task
				// closure — serialize and transfer per task.
				ship = float64(tc.tasks) * float64(payload) * (model.SerByte + model.NetByte + model.BcastDeser)
			}
			b.ReportMetric(bcast, "broadcast-simsec")
			b.ReportMetric(ship, "pertask-simsec")
		})
	}
}

// BenchmarkComparePDSDBSCAN compares the paper's Spark algorithm with
// the Patwary et al. disjoint-set parallel DBSCAN on metered work: the
// SEED/merge overhead the Spark design pays for communication-free
// executors versus the raw clustering work of the shared-memory
// approach.
func BenchmarkComparePDSDBSCAN(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	tree := kdtree.Build(ds)
	model := simtime.DefaultModel()
	b.Run("hanSpark", func(b *testing.B) {
		var work float64
		for i := 0; i < b.N; i++ {
			sctx := spark.NewContext(spark.Config{Cores: 8, Seed: 1})
			res, err := core.Run(sctx, ds, core.Config{Params: benchParams, Partitions: 8})
			if err != nil {
				b.Fatal(err)
			}
			var w simtime.Work
			for _, st := range res.Report.Stages {
				w.Add(st.Work)
			}
			w.Add(res.Report.DriverWork)
			work = model.Seconds(w)
		}
		b.ReportMetric(work, "total-work-simsec")
	})
	b.Run("pdsdbscan", func(b *testing.B) {
		var work float64
		for i := 0; i < b.N; i++ {
			res, err := pdsdbscan.Run(ds, tree, pdsdbscan.Config{Params: benchParams, Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			work = model.Seconds(res.Work)
		}
		b.ReportMetric(work, "total-work-simsec")
	})
}

// BenchmarkAblationSpeculation measures speculative execution against
// plain scheduling under the straggler model — the standard mitigation
// for the paper's t_straggling term.
func BenchmarkAblationSpeculation(b *testing.B) {
	ds := benchDataset(b, "c10k", 5000)
	for _, tc := range []struct {
		name string
		spec bool
	}{{"plain", false}, {"speculative", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var exec float64
			for i := 0; i < b.N; i++ {
				sctx := spark.NewContext(spark.Config{
					Cores:         32,
					Seed:          7,
					StragglerFrac: 1.5, // a bad day on the shared cluster
					Speculation:   tc.spec,
				})
				res, err := core.Run(sctx, ds, core.Config{Params: benchParams, Partitions: 32})
				if err != nil {
					b.Fatal(err)
				}
				exec = res.Phases.Executors
			}
			b.ReportMetric(exec, "executor-simsec")
		})
	}
}

// BenchmarkAblationCombiner measures the MapReduce combiner's effect on
// the DBSCAN label-propagation job (intermediate volume and time).
func BenchmarkAblationCombiner(b *testing.B) {
	ds := benchDataset(b, "c10k", 2000)
	for _, tc := range []struct {
		name     string
		combiner bool
	}{{"noCombiner", false}, {"combiner", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			var spill int64
			for i := 0; i < b.N; i++ {
				res, err := mrdbscan.Run(ds, mrdbscan.Config{
					Params:      benchParams,
					UseCombiner: tc.combiner,
					MR:          mapreduce.Config{Cores: 4, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				total = res.TotalSeconds
				spill = res.Work.DiskWriteBytes
			}
			b.ReportMetric(total, "total-simsec")
			b.ReportMetric(float64(spill), "spill-bytes")
		})
	}
}

// BenchmarkAblationVisited compares the offset-array visited set the
// implementation uses with the paper's Hashtable equivalent (a Go map).
func BenchmarkAblationVisited(b *testing.B) {
	const n = 100_000
	b.Run("array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			visited := make([]bool, n)
			for j := 0; j < n; j++ {
				if !visited[j] {
					visited[j] = true
				}
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			visited := make(map[int32]bool, n)
			for j := int32(0); j < n; j++ {
				if !visited[j] {
					visited[j] = true
				}
			}
		}
	})
}

func byCores(c int) string {
	return map[int]string{1: "cores1", 2: "cores2", 4: "cores4", 8: "cores8"}[c]
}
