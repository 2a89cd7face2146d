// Scaling study: run the paper's r10k workload across a core sweep on
// the virtual cluster and print the speedup decomposition — a miniature
// of the paper's Figures 6 and 8, runnable in seconds. Also contrasts
// the paper's exact algorithm variant (one SEED per foreign partition,
// single-pass merge) with the exact default.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"sparkdbscan"
)

func main() {
	ds, err := sparkdbscan.Generate("r10k", 0)
	if err != nil {
		log.Fatal(err)
	}
	eps, minPts := sparkdbscan.TableIParams()
	fmt.Printf("dataset r10k: %d points, %d dims, eps=%g, minPts=%d\n\n",
		ds.Len(), ds.Dim, eps, minPts)

	run := func(cores int, paper bool) *sparkdbscan.Result {
		res, err := sparkdbscan.Cluster(ds, sparkdbscan.Config{
			Eps:           eps,
			MinPts:        minPts,
			Cores:         cores,
			PaperFidelity: paper,
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(1, false)
	fmt.Println("cores  exec(s)  driver(s)  exec-speedup  total-speedup  partials  clusters")
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		res := base
		if cores > 1 {
			res = run(cores, false)
		}
		fmt.Printf("%5d  %7.1f  %9.2f  %12.2f  %13.2f  %8d  %8d\n",
			cores,
			res.Timing.Executors,
			res.Timing.Driver(),
			base.Timing.Executors/res.Timing.Executors,
			base.Timing.Total()/res.Timing.Total(),
			res.PartialClusters,
			res.NumClusters)
	}

	// The paper's variant on the same data: same clusters on clean
	// inputs, fewer seeds, weaker merge guarantees.
	fmt.Println("\npaper-fidelity variant at 8 cores:")
	exact := run(8, false)
	paper := run(8, true)
	fmt.Printf("  exact:   %d clusters, %d noise, merge %.2fs\n",
		exact.NumClusters, exact.NumNoise, exact.Timing.Merge)
	fmt.Printf("  paper:   %d clusters, %d noise, merge %.2fs\n",
		paper.NumClusters, paper.NumNoise, paper.Timing.Merge)
}
