// Command dbscan clusters a point file with sequential or distributed
// DBSCAN and writes one cluster label per line (-1 = noise).
//
// Usage:
//
//	dbscan -in points.txt -eps 25 -minpts 5                 # sequential
//	dbscan -in points.txt -eps 25 -minpts 5 -cores 8        # distributed
//	dbscan -in points.bin -eps 25 -minpts 5 -cores 8 -paper # paper's exact variant
//	dbscan -in points.txt -eps 25 -minpts 5 -serve-demo -serve-chaos 53 # serving demo with fault injection
//	dbscan -in points.txt -eps 25 -minpts 5 -serve-live     # live-update demo: insert/delete, reconcile, verify
//	dbscan -in embed4k.bin -eps 0.4 -minpts 8 -mode knn     # high-dimensional kNN-graph mode (exact graph)
//	dbscan -in embed4k.bin -eps 0.4 -minpts 8 -mode knn -knnalgo nndescent -knnseed 7 # approximate graph
package main

import (
	"fmt"
	"os"

	"sparkdbscan/internal/cli"
)

func main() {
	if err := cli.RunDBSCAN(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}
