// High-dimensional mode: cluster synthetic d=128 embeddings (Gaussian
// caps on the unit sphere plus uniform-noise outliers) with KNN-graph
// DBSCAN, and score both graph builders against the exact DBSCAN
// reference with NMI. This is the workload the knn mode exists for:
// at d=128 kd-tree pruning is useless (see the kdtree high-dimension
// benchmarks), so exact DBSCAN is a brute-force scan and the
// approximate NN-descent graph is the only sub-quadratic path.
//
//	go run ./examples/embeddings
package main

import (
	"fmt"
	"log"
	"time"

	"sparkdbscan"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
)

func main() {
	// embed4k scaled to 2400 points: d=128, 5 planted clusters, 5%
	// uniform noise, calibrated for DBSCAN(0.4, 8).
	ds, eps, minPts, err := sparkdbscan.GenerateEmbeddings("embed4k", 2400)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d points, dim %d (eps=%g minpts=%d)\n\n",
		ds.Len(), ds.Dim, eps, minPts)

	// The exact DBSCAN reference. The kd-tree cannot prune at d=128,
	// so the honest exact baseline is a brute-force radius scan.
	start := time.Now()
	ref, err := dbscan.Run(ds, kdtree.NewBruteForce(ds), dbscan.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact DBSCAN (brute-force radius): %d clusters, %d noise, %v\n",
		ref.NumClusters, ref.NumNoise, time.Since(start).Round(time.Millisecond))

	for _, cfg := range []sparkdbscan.KNNConfig{
		{Algo: sparkdbscan.KNNExact},
		{Algo: sparkdbscan.KNNDescent, Seed: 7},
	} {
		cfg.Eps, cfg.MinPts, cfg.K = eps, minPts, 16
		start = time.Now()
		res, err := sparkdbscan.ClusterKNN(ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		nmi, err := eval.NMI(res.Labels, ref.Labels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("knn (%s graph, k=%d):  %d clusters, %d noise, %v, NMI vs exact %.4f\n",
			cfg.Algo, cfg.K, res.NumClusters, res.NumNoise, elapsed, nmi)
	}

	fmt.Println("\nThe exact graph reproduces the reference; the approximate graph")
	fmt.Println("trades a sliver of NMI for the build speedup measured by")
	fmt.Println("`benchrunner -bench knn` (>=3x at n=20k, d=128).")
}
