package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/knng"
	"sparkdbscan/internal/quest"
)

// The knn bench measures the high-dimensional mode's accuracy-vs-speed
// frontier on the reference embedding mixture (embed20k: d=128
// Gaussian caps on the unit sphere, 5% uniform noise, calibrated for
// DBSCAN(0.4, 8)). For each graph degree k it times the exact blocked
// brute-force build and the approximate NN-descent build, scores the
// approximate graph's neighbour recall against the exact lists, runs
// KNN-DBSCAN on both graphs, and scores each labeling against the
// exact DBSCAN reference (brute-force radius scan — the honest exact
// baseline at d=128, where the kd-tree cannot prune) with NMI and ARI.
//
// At the default k (16) the two builds are timed in defaultKReps
// alternating repetitions and each arm reports its median, so the
// speed gate compares the two builders across the same stretch of host
// drift rather than across one window each; the other k values run
// one pass each.
//
// Gates: at the default k both graphs must reach NMI >= 0.99 against
// exact DBSCAN; KNN-DBSCAN labels on the approximate graph must be
// byte-identical across DSU worker counts; and outside a smoke run (the
// full n=20k, d=128) the approximate build's median must be >= 3x
// faster than the exact build's.

// defaultKReps is how many alternating exact/NN-descent build pairs
// the default k times.
const defaultKReps = 3

// KNNBenchArm is one (builder, k) cell of the frontier.
type KNNBenchArm struct {
	Algo string `json:"algo"`
	K    int    `json:"k"`
	// BuildSeconds is the wall-clock graph construction time (at the
	// default k, the median of defaultKReps builds); ClusterSeconds the
	// KNN-DBSCAN pass over the finished graph.
	BuildSeconds   float64 `json:"build_seconds"`
	ClusterSeconds float64 `json:"cluster_seconds"`
	// Recall is the mean fraction of the exact k-nearest lists the
	// graph reproduces (1 for the exact builder by construction).
	Recall float64 `json:"recall_at_k"`
	// NMI and ARI score the arm's labels against exact DBSCAN.
	NMI         float64 `json:"nmi_vs_exact"`
	ARI         float64 `json:"ari_vs_exact"`
	NumClusters int     `json:"clusters"`
	NumNoise    int     `json:"noise"`
	// SpeedupVsExact is the exact build time at this k over this arm's
	// (1 for the exact arms).
	SpeedupVsExact float64 `json:"build_speedup_vs_exact"`
}

// KNNBenchResult is the BENCH_knn.json result body.
type KNNBenchResult struct {
	Smoke   bool    `json:"smoke"`
	Dataset string  `json:"dataset"`
	Points  int     `json:"points"`
	Dim     int     `json:"dim"`
	Eps     float64 `json:"eps"`
	MinPts  int     `json:"min_pts"`
	Seed    uint64  `json:"seed"`
	// Reference exact DBSCAN (brute-force radius at d=128).
	RefSeconds  float64 `json:"exact_dbscan_seconds"`
	RefClusters int     `json:"exact_dbscan_clusters"`
	RefNoise    int     `json:"exact_dbscan_noise"`

	Arms []KNNBenchArm `json:"arms"`

	// Gate inputs, pulled out of Arms.
	DefaultK            int     `json:"default_k"`
	NMIExactAtDefaultK  float64 `json:"nmi_exact_graph_at_default_k"`
	NMIApproxAtDefaultK float64 `json:"nmi_approx_graph_at_default_k"`
	SpeedupAtDefaultK   float64 `json:"build_speedup_at_default_k"`
	LabelsDeterministic bool    `json:"labels_deterministic_across_dsu_workers"`
}

// runKNNBench runs the frontier. c.Points sizes the mixture (default
// the full 20k; smoke shrinks to 4k and waives the build-speed gate,
// which needs the full n for the quadratic exact build to dominate).
// c.Seed is the NN-descent sampling seed (default 1).
func runKNNBench(w io.Writer, c Config) (Report, error) {
	const defaultK = 16
	ks := []int{8, defaultK, 32}

	points, seed, smoke := c.Points, c.Seed, c.Smoke
	if points <= 0 {
		points = 20_000
	}
	if smoke && points > 4_000 {
		points = 4_000
	}
	if seed == 0 {
		seed = 1
	}
	spec, err := quest.EmbedByName("embed20k")
	if err != nil {
		return Report{}, err
	}
	spec = spec.Scaled(points)
	ds, err := quest.GenerateEmbedding(spec)
	if err != nil {
		return Report{}, err
	}
	params := dbscan.Params{Eps: spec.Eps, MinPts: spec.MinPts}
	report := &KNNBenchResult{
		Smoke:   smoke,
		Dataset: spec.Name, Points: ds.Len(), Dim: ds.Dim,
		Eps: spec.Eps, MinPts: spec.MinPts, Seed: seed,
		DefaultK:            defaultK,
		LabelsDeterministic: true,
	}

	fmt.Fprintf(w, "dataset %s: %d points, dim %d, eps=%g minpts=%d, nn-descent seed %d\n",
		spec.Name, ds.Len(), ds.Dim, spec.Eps, spec.MinPts, seed)
	start := time.Now()
	ref, err := dbscan.Run(ds, kdtree.NewBruteForce(ds), params)
	if err != nil {
		return Report{}, err
	}
	report.RefSeconds = time.Since(start).Seconds()
	report.RefClusters, report.RefNoise = ref.NumClusters, ref.NumNoise
	fmt.Fprintf(w, "exact DBSCAN reference: %d clusters, %d noise in %.2fs\n\n",
		ref.NumClusters, ref.NumNoise, report.RefSeconds)

	score := func(g *knng.Graph, algo string, k int, buildSec float64, recall float64) (KNNBenchArm, error) {
		start := time.Now()
		res, err := knng.DBSCAN(g, params, knng.Options{})
		if err != nil {
			return KNNBenchArm{}, err
		}
		clusterSec := time.Since(start).Seconds()
		nmi, err := eval.NMI(res.Labels, ref.Labels)
		if err != nil {
			return KNNBenchArm{}, err
		}
		ari, err := eval.AdjustedRandIndex(res.Labels, ref.Labels)
		if err != nil {
			return KNNBenchArm{}, err
		}
		return KNNBenchArm{
			Algo: algo, K: k,
			BuildSeconds: buildSec, ClusterSeconds: clusterSec,
			Recall: recall, NMI: nmi, ARI: ari,
			NumClusters: res.NumClusters, NumNoise: res.NumNoise,
		}, nil
	}

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "algo\tk\tbuild\tcluster\trecall\tNMI\tARI\tclusters\tnoise\tspeedup")
	for _, k := range ks {
		reps := 1
		if k == defaultK {
			reps = defaultKReps
		}
		// Both builders are deterministic, so every repetition yields
		// the same graphs; the last pair is scored.
		var exact, approx *knng.Graph
		var exactTimes, approxTimes []float64
		for range reps {
			start := time.Now()
			if exact, err = knng.BuildExact(ds, k, 0); err != nil {
				return Report{}, err
			}
			exactTimes = append(exactTimes, time.Since(start).Seconds())

			start = time.Now()
			if approx, err = knng.BuildNNDescent(ds, k, knng.ApproxOptions{Seed: seed}); err != nil {
				return Report{}, err
			}
			approxTimes = append(approxTimes, time.Since(start).Seconds())
		}
		_, exactSec, _ := quartiles(exactTimes)
		_, approxSec, _ := quartiles(approxTimes)
		recall, err := eval.RecallAtK(approx.Idx, exact.Idx, k)
		if err != nil {
			return Report{}, err
		}

		exactArm, err := score(exact, "exact", k, exactSec, 1)
		if err != nil {
			return Report{}, err
		}
		exactArm.SpeedupVsExact = 1
		approxArm, err := score(approx, "nndescent", k, approxSec, recall)
		if err != nil {
			return Report{}, err
		}
		approxArm.SpeedupVsExact = exactSec / approxSec
		report.Arms = append(report.Arms, exactArm, approxArm)
		for _, arm := range []KNNBenchArm{exactArm, approxArm} {
			fmt.Fprintf(tw, "%s\t%d\t%.2fs\t%.2fs\t%.4f\t%.4f\t%.4f\t%d\t%d\t%.2fx\n",
				arm.Algo, arm.K, arm.BuildSeconds, arm.ClusterSeconds,
				arm.Recall, arm.NMI, arm.ARI, arm.NumClusters, arm.NumNoise,
				arm.SpeedupVsExact)
		}
		if k == defaultK {
			report.NMIExactAtDefaultK = exactArm.NMI
			report.NMIApproxAtDefaultK = approxArm.NMI
			report.SpeedupAtDefaultK = approxArm.SpeedupVsExact

			// The determinism gate: KNN-DBSCAN on the approximate graph
			// must label identically whatever the DSU worker count.
			var base []int32
			for _, workers := range []int{1, 2, 8} {
				res, err := knng.DBSCAN(approx, params, knng.Options{Workers: workers})
				if err != nil {
					return Report{}, err
				}
				if base == nil {
					base = res.Labels
				} else if !slices.Equal(res.Labels, base) {
					report.LabelsDeterministic = false
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}

	fmt.Fprintf(w, "\nat default k=%d: exact-graph NMI %.4f, approx-graph NMI %.4f, build speedup %.2fx\n",
		defaultK, report.NMIExactAtDefaultK, report.NMIApproxAtDefaultK, report.SpeedupAtDefaultK)

	rep := Report{
		Method: "For each k, time the exact tiled brute-force kNN build and the seeded " +
			"NN-descent build on the embed20k mixture (d=128 unit-sphere Gaussian caps), " +
			"score NN-descent's neighbour recall against the exact lists, run KNN-DBSCAN " +
			"on every graph and score its labels against the exact DBSCAN reference " +
			"(brute-force radius scan) with NMI/ARI. Gates: NMI >= 0.99 at k=16 on both " +
			"graphs, labels byte-identical across DSU worker counts, and outside a smoke " +
			"run the approximate build >= 3x faster than exact at k=16. At k=16 the two " +
			"builds alternate three times and each arm reports its median build time; " +
			"k=8 and k=32 are one pass each.",
		Result: report,
	}
	rep.gate("labels-deterministic", report.LabelsDeterministic,
		"approx-graph labels identical across 1/2/8 DSU workers: %v", report.LabelsDeterministic)
	rep.gate("nmi-exact-graph", report.NMIExactAtDefaultK >= 0.99,
		"exact-graph NMI at k=%d is %.4f (want >= 0.99)", defaultK, report.NMIExactAtDefaultK)
	rep.gate("nmi-approx-graph", report.NMIApproxAtDefaultK >= 0.99,
		"approx-graph NMI at k=%d is %.4f (want >= 0.99)", defaultK, report.NMIApproxAtDefaultK)
	if smoke {
		fmt.Fprintf(w, "(smoke: %.2fx build speedup reported, >= 3x gate waived below full size)\n",
			report.SpeedupAtDefaultK)
	} else {
		rep.gate("build-speedup", report.SpeedupAtDefaultK >= 3,
			"approximate build speedup at k=%d is %.2fx at n=%d (want >= 3x)",
			defaultK, report.SpeedupAtDefaultK, report.Points)
	}
	return rep, nil
}
