package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// The kd-tree engine benchmark measures the packed query engine on
// the host wall clock, on the workload shape the executors actually
// run — a full pass querying every point of a clustered dataset once,
// which is exactly LocalDBSCAN's access pattern. Host noise on a shared
// machine drifts over seconds to minutes, so each repetition times the
// whole grid before the next begins, and every figure is the median
// over repetitions with its quartiles beside it: a slow stretch of the
// host lands on one repetition of every cell instead of on every
// repetition of one cell. The pre-packed tree it replaced is compared
// in BENCH_kdtree.json at commit 0df0cd6.

// KDBenchCell is one (operation, dataset) measurement: the median
// nanoseconds per query over the repetitions, and its quartiles.
type KDBenchCell struct {
	Op         string  `json:"op"`
	Dim        int     `json:"dim"`
	N          int     `json:"n"`
	Eps        float64 `json:"eps"`
	Queries    int     `json:"queries"`
	NsPerQuery float64 `json:"ns_per_query"`
	NsP25      float64 `json:"ns_p25"`
	NsP75      float64 `json:"ns_p75"`
}

// KDBenchBuild is one dataset's (parallel, bit-identical) build: the
// median milliseconds over the repetitions, and its quartiles.
type KDBenchBuild struct {
	Dim         int     `json:"dim"`
	N           int     `json:"n"`
	BuildMs     float64 `json:"build_ms"`
	BuildMsP25  float64 `json:"build_ms_p25"`
	BuildMsP75  float64 `json:"build_ms_p75"`
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

// quartiles returns the 25th, 50th and 75th percentiles of xs,
// interpolating linearly between order statistics. It sorts xs.
func quartiles(xs []float64) (p25, p50, p75 float64) {
	slices.Sort(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo == len(xs)-1 {
			return xs[lo]
		}
		frac := pos - float64(lo)
		return xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	return at(0.25), at(0.5), at(0.75)
}

// runKDBench times the packed tree's build and full query passes over
// {Radius, RadiusLimit} × d ∈ {2, 10} × n ∈ {10k, 100k}. Each
// repetition builds and queries every dataset once, and each figure is
// the median over five repetitions with its quartiles; smoke runs one.
func runKDBench(w io.Writer, c Config) (Report, error) {
	reps := 5
	if c.Smoke {
		reps = 1
	}
	type kdSet struct {
		ds      *geom.Dataset
		eps     float64
		tree    *kdtree.Tree
		buildMs []float64
		ns      [][]float64 // per op, ns per query of each repetition
	}
	var sets []*kdSet
	for _, dim := range []int{2, 10} {
		for _, n := range []int{10_000, 100_000} {
			sets = append(sets, &kdSet{ds: kdBenchDataset(n, dim), eps: kdBenchEps(dim), ns: make([][]float64, len(kdBenchOps))})
		}
	}
	for rep := 0; rep < reps; rep++ {
		for _, s := range sets {
			start := time.Now()
			s.tree = kdtree.Build(s.ds)
			s.buildMs = append(s.buildMs, float64(time.Since(start).Nanoseconds())/1e6)
			for k, op := range kdBenchOps {
				ns := float64(fullPass(s.tree, s.ds, s.eps, op).Nanoseconds()) / float64(s.ds.Len())
				s.ns[k] = append(s.ns[k], ns)
			}
		}
	}

	res := &KDBenchResult{Reps: reps}
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "op\td\tn\teps\tns/q\tp25\tp75")
	for _, s := range sets {
		dim, n := s.ds.Dim, s.ds.Len()
		build := KDBenchBuild{Dim: dim, N: n, MemoryBytes: s.tree.MemoryBytes()}
		build.BuildMsP25, build.BuildMs, build.BuildMsP75 = quartiles(s.buildMs)
		res.Builds = append(res.Builds, build)
		for k, op := range kdBenchOps {
			cell := KDBenchCell{Op: op, Dim: dim, N: n, Eps: s.eps, Queries: n}
			cell.NsP25, cell.NsPerQuery, cell.NsP75 = quartiles(s.ns[k])
			res.Cells = append(res.Cells, cell)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%g\t%.0f\t%.0f\t%.0f\n", op, dim, n, s.eps, cell.NsPerQuery, cell.NsP25, cell.NsP75)
		}
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}
	return Report{
		Method: "full pass: every dataset point queried once per op; each repetition builds " +
			"and queries the whole grid in turn, and each figure is the median over " +
			"repetitions with its 25th and 75th percentiles",
		Result: res,
	}, nil
}
