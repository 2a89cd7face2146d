package sparkdbscan

// ---- high-dimensional mode: KNN-graph DBSCAN ----
//
// Every Table I workload is d=10, where the packed kd-tree wins; real
// embedding workloads (d=128+) defeat spatial pruning entirely (see the
// kdtree high-dimension tests). ClusterKNN recovers DBSCAN from a
// k-nearest-neighbour graph instead: an exact blocked brute-force
// builder, or an approximate NN-descent builder that trades a little
// graph recall for a large build speedup, both feeding the same
// union-find clustering the distributed merge uses. See internal/knng,
// examples/embeddings and the knn bench (benchrunner -bench knn).

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/knng"
	"sparkdbscan/internal/quest"
)

// KNNAlgo selects how the kNN graph is built.
type KNNAlgo int

const (
	// KNNExact is the blocked brute-force builder: the true kNN graph,
	// O(n²d) worst case. With it, ClusterKNN reproduces exact DBSCAN
	// (given a k large enough to witness the clusters' connectivity).
	KNNExact KNNAlgo = iota
	// KNNDescent is the approximate NN-descent builder: seeded,
	// deterministic per Seed at any worker count, typically >90%
	// recall at a fraction of the exact build cost.
	KNNDescent
)

func (a KNNAlgo) String() string {
	switch a {
	case KNNExact:
		return "exact"
	case KNNDescent:
		return "nndescent"
	default:
		return fmt.Sprintf("KNNAlgo(%d)", int(a))
	}
}

// ParseKNNAlgo converts the CLI spelling ("exact", "nndescent").
func ParseKNNAlgo(s string) (KNNAlgo, error) {
	switch s {
	case "exact":
		return KNNExact, nil
	case "nndescent":
		return KNNDescent, nil
	default:
		return 0, fmt.Errorf("sparkdbscan: unknown knn algorithm %q (want exact or nndescent)", s)
	}
}

// KNNConfig configures a KNN-graph DBSCAN run.
type KNNConfig struct {
	// Eps and MinPts are the DBSCAN parameters; K is the graph degree
	// (default 16). K must be at least MinPts-1 so the graph can
	// witness the core rule.
	Eps    float64
	MinPts int
	K      int
	// Algo picks the graph builder (default KNNExact).
	Algo KNNAlgo
	// Seed drives KNNDescent's sampling; the run is byte-identical per
	// seed at any worker count.
	Seed uint64
	// Workers parallelizes the graph build and the clustering (<= 0:
	// all host cores).
	Workers int
	// Mutual switches the core-core edge rule to require each core in
	// the other's list (the conservative variant); default one-sided.
	Mutual bool
}

// KNNResult is the outcome of a KNN-graph clustering run.
type KNNResult struct {
	// Labels assigns each point a cluster id in [0, NumClusters) or
	// Noise.
	Labels []int32
	// Core marks the points proven core by the graph (on an exact
	// graph, exactly DBSCAN's core set).
	Core []bool
	// KDist is each point's distance to its K-th nearest listed
	// neighbour — the k-distance plot used to pick Eps, and a
	// per-point density/outlier signal.
	KDist       []float64
	NumClusters int
	NumNoise    int
}

// ClusterKNN clusters ds through a kNN graph. Deterministic: exact
// mode depends only on (ds, cfg); approximate mode additionally only
// on Seed. A NaN or infinite coordinate is an error naming the point.
func ClusterKNN(ds *Dataset, cfg KNNConfig) (*KNNResult, error) {
	if cfg.K == 0 {
		cfg.K = DefaultKNNK
	}
	var (
		g   *knng.Graph
		err error
	)
	switch cfg.Algo {
	case KNNExact:
		g, err = knng.BuildExact(ds, cfg.K, cfg.Workers)
	case KNNDescent:
		g, err = knng.BuildNNDescent(ds, cfg.K, knng.ApproxOptions{Seed: cfg.Seed, Workers: cfg.Workers})
	default:
		err = fmt.Errorf("sparkdbscan: unknown KNNAlgo %v", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}
	edges := knng.EdgeOneSided
	if cfg.Mutual {
		edges = knng.EdgeMutual
	}
	res, err := knng.DBSCAN(g, dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
		knng.Options{Workers: cfg.Workers, Edges: edges})
	if err != nil {
		return nil, err
	}
	return &KNNResult{
		Labels:      res.Labels,
		Core:        res.Core,
		KDist:       res.KDist,
		NumClusters: res.NumClusters,
		NumNoise:    res.NumNoise,
	}, nil
}

// DefaultKNNK is the default graph degree for ClusterKNN and the knn
// benchmark's reference configuration.
const DefaultKNNK = 16

// GenerateEmbeddings builds one of the reference embedding mixtures by
// name (embed4k, embed20k): Gaussian clusters on the d=128 unit
// sphere plus uniform unit-vector noise, the workload family the knn
// mode exists for. maxPoints > 0 scales the mixture down; the returned
// eps and minPts are the parameters the mixture is calibrated for.
func GenerateEmbeddings(name string, maxPoints int) (ds *Dataset, eps float64, minPts int, err error) {
	spec, err := quest.EmbedByName(name)
	if err != nil {
		return nil, 0, 0, err
	}
	if maxPoints > 0 {
		spec = spec.Scaled(maxPoints)
	}
	ds, err = quest.GenerateEmbedding(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	return ds, spec.Eps, spec.MinPts, nil
}
