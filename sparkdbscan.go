// Package sparkdbscan is a Go reproduction of "A novel scalable DBSCAN
// algorithm with Spark" (Han, Agrawal, Liao, Choudhary — IPDPSW 2016).
//
// It provides:
//
//   - sequential DBSCAN over a kd-tree (the paper's Algorithm 1),
//   - the paper's distributed formulation: index-range partitioning,
//     communication-free per-executor clustering with SEED markers
//     (Algorithms 2–3), and driver-side merging (Algorithm 4),
//   - the substrates the paper runs on, rebuilt in Go: a Spark-like
//     driver/executor runtime with RDDs, broadcasts and accumulators, a
//     MapReduce runtime for the baseline comparison, a simulated HDFS,
//     and a virtual cluster that reproduces the paper's up-to-512-core
//     timing experiments on a laptop,
//   - the IBM-Quest-style synthetic workloads of Table I, and
//   - a benchmark harness regenerating every table and figure of the
//     paper's evaluation (see internal/bench and cmd/benchrunner).
//
// This file is the façade the examples and command-line tools use:
// dataset construction and I/O, sequential and distributed clustering,
// and a compact result type.
package sparkdbscan

import (
	"fmt"
	"os"
	"strings"

	"sparkdbscan/internal/core"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdist"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/serve"
	"sparkdbscan/internal/spark"
)

// Dataset is a fixed-dimension point collection. Point i's coordinates
// live at Coords[i*Dim:(i+1)*Dim]; the optional Label slice carries
// ground truth for evaluation.
type Dataset = geom.Dataset

// NewDataset allocates an empty dataset of n points in dim dimensions.
func NewDataset(n, dim int) *Dataset { return geom.NewDataset(n, dim) }

// Noise is the label assigned to unclustered points.
const Noise = dbscan.Noise

// Config configures a distributed clustering run.
type Config struct {
	// Eps is the neighbourhood radius; MinPts the density threshold.
	Eps    float64
	MinPts int
	// Cores is the (virtual) cluster size; 0 means 1.
	Cores int
	// Partitions defaults to Cores, matching the paper.
	Partitions int
	// PaperFidelity selects the paper's exact algorithm variants: one
	// SEED per foreign partition per partial cluster (Algorithm 3) and
	// the single-pass Algorithm 4 merge, over the paper's input-index
	// ranges. The default (false) uses the exact variants — every
	// foreign point reached becomes a SEED and the merge labels
	// canonically through a union-find — whose labels equal sequential
	// DBSCAN's byte for byte, at no extra query cost, over runs of the
	// kd-tree's leaf order (the paper's future work), which cuts the
	// partial-cluster count and with it the merge cost.
	PaperFidelity bool
	// MaxNeighbors > 0 enables pruned ("pruning branches") search.
	MaxNeighbors int
	// MinLocalClusterSize > 1 drops tiny partial clusters on the
	// executors (the paper's large-dataset filter).
	MinLocalClusterSize int
	// RealTime switches timing from the calibrated virtual cluster to
	// wall-clock goroutine execution (Cores then should not exceed the
	// host CPU count).
	RealTime bool
	// Seed feeds the deterministic straggler model.
	Seed uint64
}

// Timing is the per-phase time decomposition of a run, in (simulated or
// wall-clock) seconds.
type Timing struct {
	ReadTransform float64 // Δ: ingest + RDD transform
	TreeBuild     float64 // kd-tree construction in the driver
	Broadcast     float64 // driver-side broadcast serialization
	Executors     float64 // parallel local clustering (stage makespan)
	Merge         float64 // driver-side partial-cluster merge
}

// Driver returns the driver-side share.
func (t Timing) Driver() float64 {
	return t.ReadTransform + t.TreeBuild + t.Broadcast + t.Merge
}

// Total returns driver + executor time.
func (t Timing) Total() float64 { return t.Driver() + t.Executors }

// Result is the outcome of a clustering run.
type Result struct {
	// Labels assigns each point a cluster id in [0, NumClusters) or
	// Noise.
	Labels      []int32
	NumClusters int
	NumNoise    int
	// PartialClusters is how many executor-local clusters existed
	// before merging (0 for sequential runs).
	PartialClusters int
	// Timing decomposes the run's cost (zero for sequential runs
	// except Executors, which holds the whole run).
	Timing Timing
}

// ClusterSizes returns the member count per cluster id.
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// Members returns the point indices belonging to cluster id. It scans
// every label; when iterating over points rather than clusters, use
// LabelOf instead of one Members call per cluster.
func (r *Result) Members(id int32) []int32 {
	var out []int32
	for i, l := range r.Labels {
		if l == id {
			out = append(out, int32(i))
		}
	}
	return out
}

// LabelOf returns point i's cluster id, or Noise. It is the O(1)
// per-point accessor; out-of-range indices return Noise.
func (r *Result) LabelOf(i int32) int32 {
	if i < 0 || int(i) >= len(r.Labels) {
		return Noise
	}
	return r.Labels[i]
}

// Cluster runs the paper's distributed DBSCAN on ds.
func Cluster(ds *Dataset, cfg Config) (*Result, error) {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	mode := spark.Virtual
	if cfg.RealTime {
		mode = spark.Real
	}
	sctx := spark.NewContext(spark.Config{
		Cores: cfg.Cores,
		Mode:  mode,
		Seed:  cfg.Seed,
	})
	mergeAlgo := core.MergeParallel
	if cfg.PaperFidelity {
		mergeAlgo = core.MergePaper
	}
	res, err := core.Run(sctx, ds, core.Config{
		Params:              dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
		Partitions:          cfg.Partitions,
		Merge:               core.MergeOptions{Algo: mergeAlgo},
		MaxNeighbors:        cfg.MaxNeighbors,
		MinLocalClusterSize: cfg.MinLocalClusterSize,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:          res.Global.Labels,
		NumClusters:     res.Global.NumClusters,
		NumNoise:        res.Global.NumNoise,
		PartialClusters: res.Global.NumPartialClusters,
		Timing: Timing{
			ReadTransform: res.Phases.ReadTransform,
			TreeBuild:     res.Phases.TreeBuild,
			Broadcast:     res.Phases.Broadcast,
			Executors:     res.Phases.Executors,
			Merge:         res.Phases.Merge,
		},
	}, nil
}

// ClusterSequential runs the reference single-threaded DBSCAN
// (Algorithm 1) over a kd-tree. It rejects bad parameters and
// non-finite points before building the tree.
func ClusterSequential(ds *Dataset, eps float64, minPts int) (*Result, error) {
	params := dbscan.Params{Eps: eps, MinPts: minPts}
	if err := dbscan.Check(ds, params); err != nil {
		return nil, err
	}
	res, err := dbscan.Run(ds, kdtree.Build(ds), params)
	if err != nil {
		return nil, err
	}
	return &Result{
		Labels:      res.Labels,
		NumClusters: res.NumClusters,
		NumNoise:    res.NumNoise,
	}, nil
}

// Generate builds one of the paper's Table I synthetic datasets by name
// (c10k, c100k, r10k, r100k, r1m), optionally scaled down to about
// maxPoints (0 keeps the full size).
func Generate(name string, maxPoints int) (*Dataset, error) {
	spec, err := quest.ByName(name)
	if err != nil {
		return nil, err
	}
	if maxPoints > 0 {
		spec = spec.Scaled(maxPoints)
	}
	return quest.Generate(spec)
}

// TableIParams returns the eps and minPts every Table I dataset uses.
func TableIParams() (eps float64, minPts int) {
	return quest.TableIEps, quest.TableIMinPts
}

// SuggestEps estimates a good eps for the given minPts using the
// original DBSCAN paper's k-distance heuristic (k = minPts-1): the
// elbow of the sorted k-distance plot. The computation is distributed
// over cores virtual cores. It also returns an estimate of the data's
// noise fraction (points left of the elbow).
func SuggestEps(ds *Dataset, minPts, cores int) (eps, noiseFrac float64, err error) {
	if minPts < 2 {
		return 0, 0, fmt.Errorf("sparkdbscan: SuggestEps needs minPts >= 2, got %d", minPts)
	}
	if cores < 1 {
		cores = 1
	}
	sctx := spark.NewContext(spark.Config{Cores: cores})
	kd, err := kdist.ComputeDistributed(sctx, ds, minPts-1, cores)
	if err != nil {
		return 0, 0, err
	}
	return kdist.SuggestEps(kd)
}

// LoadDataset reads a dataset from path. Files ending in .bin use the
// binary format; everything else is parsed as text (one point per line,
// whitespace- or comma-separated, optional trailing "#label").
func LoadDataset(path string) (*Dataset, error) {
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

// ---- online serving ----
//
// Clustering is a batch job; classifying new points against a finished
// clustering is a service. Freeze turns a Result into an immutable
// Model snapshot, NewServer wraps it in a concurrent query pool with
// micro-batching, backpressure and hot-swap. See internal/serve and
// examples/serving.

// Model is an immutable snapshot of a clustering (labels, core-point
// set, spatial index, parameters) that answers point-assignment
// queries. Any number of goroutines may call Assign concurrently.
type Model = serve.Model

// Assignment is the answer to one serving query.
type Assignment = serve.Assignment

// Server is a concurrent serving pool over a hot-swappable Model.
type Server = serve.Server

// ServeOptions configures NewServer; the zero value picks defaults.
type ServeOptions = serve.Options

// ServeStats is a snapshot of a Server's metrics.
type ServeStats = serve.Stats

// ErrOverloaded is returned for queries shed by a Server's
// backpressure (admission queue full, queue delay past the limit, or
// priority shedding while degraded). More specific shed sentinels in
// internal/serve wrap it, so errors.Is(err, ErrOverloaded) matches
// every shed class.
var ErrOverloaded = serve.ErrOverloaded

// ErrClosed is returned for queries arriving after Close or Drain, and
// for queries in flight when Close tears the pool down (Drain answers
// them instead).
var ErrClosed = serve.ErrClosed

// ErrPanicked is returned for the one query whose evaluation panicked.
// Panics are confined to the poisoned request: the worker recovers,
// other queries in the same batch are answered normally, and the
// process never dies.
var ErrPanicked = serve.ErrPanicked

// Priority orders queries for shedding under degraded health: Degraded
// sheds PriorityLow at admission, BrownedOut serves only PriorityHigh.
// The zero value is PriorityNormal; set one per query with
// Server.AssignPriority.
type Priority = serve.Priority

const (
	PriorityLow    = serve.PriorityLow
	PriorityNormal = serve.PriorityNormal
	PriorityHigh   = serve.PriorityHigh
)

// Health is the server's position on the graceful-degradation ladder
// (healthy, degraded, browned-out), driven by the queue-delay EWMA.
// It is reported in ServeStats.Health.
type Health = serve.Health

const (
	HealthHealthy    = serve.HealthHealthy
	HealthDegraded   = serve.HealthDegraded
	HealthBrownedOut = serve.HealthBrownedOut
)

// ChaosProfile deterministically injects worker faults (kills, stalls,
// slowdowns, poisoned requests, dropped responses) into a Server for
// resilience testing: same seed, same fault schedule. Set it in
// ServeOptions.Chaos. See examples/resilience and the chaos bench
// (benchrunner -bench chaos).
type ChaosProfile = serve.ChaosProfile

// Freeze snapshots a clustering into a Model for serving. It derives
// the core-point set from the dataset (distributed results keep only
// labels) and builds a fresh spatial index; eps and minPts must be the
// values res was clustered with.
func Freeze(ds *Dataset, res *Result, eps float64, minPts int) (*Model, error) {
	if res == nil {
		return nil, fmt.Errorf("sparkdbscan: Freeze needs a clustering result")
	}
	return serve.Freeze(ds, res.Labels, nil, nil, dbscan.Params{Eps: eps, MinPts: minPts})
}

// NewServer starts a serving pool over m. The caller must Close it.
func NewServer(m *Model, opts ServeOptions) *Server {
	return serve.NewServer(m, opts)
}

// ---- live updates ----
//
// A frozen Model is immutable; a LiveModel additionally absorbs point
// insertions and deletions with IncrementalDBSCAN-style local updates,
// serving reads wait-free from immutable epoch snapshots. Between
// reconciliations the clustering degrades one-sidedly (core flags and
// noise stay exact; clusters can only be coarser than a from-scratch
// run); reconciliation — automatic past an overlay-size or drift
// threshold, or on demand — reruns the offline pipeline on the
// survivors and restores exactness. See internal/live, DESIGN.md §17
// and examples/liveserving.

// LiveModel is a mutable DBSCAN model: a frozen base plus a delta
// overlay, read through pinned epoch snapshots. Mutators (Insert,
// Delete, ReconcileNow) may be called from any goroutine and serialize
// on the model's lock, while any number of goroutines read wait-free.
type LiveModel = live.Model

// LiveOptions configures a LiveModel's reconciliation thresholds; the
// zero value picks defaults (reconcile past 4096 overlay entries or
// 25% drift).
type LiveOptions = live.Options

// LiveGuard is a pinned epoch of a LiveModel: a consistent, immutable
// snapshot that stays readable for as long as it is held. The garbage
// collector frees the epoch once no Guard holds it; Close releases
// nothing.
type LiveGuard = live.Guard

// LiveStats snapshots a LiveModel's mutation counters.
type LiveStats = live.Stats

// ReconcileStats describes one reconciliation (survivor count, drift
// at trigger, rebuild cost).
type ReconcileStats = live.ReconcileStats

// LiveServer is a serving pool over a LiveModel: the wait-free read
// path of Server plus a mutation path (Insert, Delete) that publishes
// each change as a new epoch before returning, advances the serving
// generation once per reconcile, and refuses writes with ErrClosed
// once Close or Drain has begun.
type LiveServer = live.Server

// NewLiveModel wraps a finished clustering in a mutable live model.
// eps and minPts must be the values res was clustered with; the
// dataset is adopted and must not be mutated afterwards.
func NewLiveModel(ds *Dataset, res *Result, eps float64, minPts int, opts LiveOptions) (*LiveModel, error) {
	if res == nil {
		return nil, fmt.Errorf("sparkdbscan: NewLiveModel needs a clustering result")
	}
	return live.NewModel(ds, res.Labels, nil, dbscan.Params{Eps: eps, MinPts: minPts}, opts)
}

// NewLiveServer starts a serving pool over m's current and future
// epochs. The caller must Close (or Drain) it.
func NewLiveServer(m *LiveModel, opts ServeOptions) *LiveServer {
	return live.NewServer(m, opts)
}

// SaveDataset writes ds to path, choosing the format by extension as in
// LoadDataset.
func SaveDataset(ds *Dataset, path string) error {
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
	if werr != nil {
		return fmt.Errorf("sparkdbscan: saving %s: %w", path, werr)
	}
	return nil
}
