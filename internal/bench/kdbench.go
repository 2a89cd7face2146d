package bench

import (
	"fmt"
	"io"
	"time"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// The kd-tree engine benchmark measures the packed query engine on
// the host wall clock, on the workload shape the executors actually
// run — a full pass querying every point of a clustered dataset once,
// which is exactly LocalDBSCAN's access pattern. The best repetition is
// reported, so slow host noise (shared machines, frequency scaling)
// does not inflate the figures. The pre-packed tree it replaced is
// compared in BENCH_kdtree.json at commit 0df0cd6.

// KDBenchCell is one (operation, dataset) measurement.
type KDBenchCell struct {
	Op         string  `json:"op"`
	Dim        int     `json:"dim"`
	N          int     `json:"n"`
	Eps        float64 `json:"eps"`
	Queries    int     `json:"queries"`
	NsPerQuery float64 `json:"ns_per_query"`
}

// KDBenchBuild is one dataset's (parallel, bit-identical) build.
type KDBenchBuild struct {
	Dim         int     `json:"dim"`
	N           int     `json:"n"`
	BuildMs     float64 `json:"build_ms"`
	MemoryBytes int64   `json:"memory_bytes"`
}

// KDBenchResult is the BENCH_kdtree.json result body.
type KDBenchResult struct {
	Reps   int            `json:"reps"`
	Builds []KDBenchBuild `json:"builds"`
	Cells  []KDBenchCell  `json:"cells"`
}

// kdBenchDataset mirrors the microbenchmark corpus in
// internal/kdtree/kdtree_bench_test.go: Table-I-shaped clusters
// (n/1000 clusters of ~1000 points, σ=8) in a 1000-unit box.
func kdBenchDataset(n, dim int) *geom.Dataset {
	clusters := n / 1000
	if clusters < 1 {
		clusters = 1
	}
	r := rng.New(uint64(n + dim))
	ds := geom.NewDataset(n, dim)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.Float64() * 1000
		}
	}
	for i := 0; i < n; i++ {
		c := centers[i%clusters]
		for j := 0; j < dim; j++ {
			ds.Coords[i*dim+j] = c[j] + r.NormFloat64()*8
		}
	}
	return ds
}

// kdBenchEps matches the microbenchmarks: the paper's Table I radius
// for its d=10 data, a radius with comparable selectivity for d=2.
func kdBenchEps(dim int) float64 {
	if dim == 10 {
		return 25
	}
	return 4
}

// fullPass runs op once per dataset point and returns the total
// wall-clock time.
func fullPass(idx kdtree.Index, ds *geom.Dataset, eps float64, op string) time.Duration {
	var out []int32
	start := time.Now()
	for i := int32(0); i < int32(ds.Len()); i++ {
		q := ds.At(i)
		switch op {
		case "Radius":
			out = idx.Radius(q, eps, out[:0], nil)
		case "RadiusLimit":
			out = idx.RadiusLimit(q, eps, 32, out[:0], nil)
		}
	}
	return time.Since(start)
}

var kdBenchOps = []string{"Radius", "RadiusLimit"}

// runKDBench times the packed tree's build and full query passes over
// {Radius, RadiusLimit} × d ∈ {2, 10} × n ∈ {10k, 100k};
// smoke takes one repetition instead of three.
func runKDBench(w io.Writer, c Config) (Report, error) {
	reps := 3
	if c.Smoke {
		reps = 1
	}
	res := &KDBenchResult{Reps: reps}
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "op\td\tn\teps\tns/q")
	for _, dim := range []int{2, 10} {
		for _, n := range []int{10_000, 100_000} {
			ds := kdBenchDataset(n, dim)
			eps := kdBenchEps(dim)

			var tree *kdtree.Tree
			build := KDBenchBuild{Dim: dim, N: n}
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				tree = kdtree.Build(ds)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				if rep == 0 || ms < build.BuildMs {
					build.BuildMs = ms
				}
			}
			build.MemoryBytes = tree.MemoryBytes()
			res.Builds = append(res.Builds, build)

			for _, op := range kdBenchOps {
				cell := KDBenchCell{Op: op, Dim: dim, N: n, Eps: eps, Queries: ds.Len()}
				for rep := 0; rep < reps; rep++ {
					ns := float64(fullPass(tree, ds, eps, op).Nanoseconds()) / float64(ds.Len())
					if rep == 0 || ns < cell.NsPerQuery {
						cell.NsPerQuery = ns
					}
				}
				res.Cells = append(res.Cells, cell)
				fmt.Fprintf(tw, "%s\t%d\t%d\t%g\t%.0f\n", op, dim, n, eps, cell.NsPerQuery)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}
	return Report{
		Method: "full pass: every dataset point queried once per op; build and each pass " +
			"repeated, best repetition reported",
		Result: res,
	}, nil
}
