// Package mrdbscan is the MapReduce implementation of DBSCAN the paper
// benchmarks Spark against in Figure 7. Like the paper's authors ("as
// we are not able to get source code from the other research teams, we
// have implemented our own DBSCAN with MapReduce approach"), we
// implement the natural MapReduce formulation: iterative minimum-label
// propagation over the eps-neighbourhood graph.
//
// Each round is one MapReduce job. Because MapReduce keeps no state in
// executor memory between jobs, every round's map tasks must re-read
// the dataset from HDFS, rebuild their spatial index, and recompute
// neighbourhoods before they can propagate labels one hop — this
// per-round recomputation, plus the per-task JVM launch, the
// intermediate-data disk trips, and the barrier between phases, is
// exactly the "many rounds of map-reduce executions ... map's
// intermediate results should be written to local disks" inefficiency
// the paper's §II-B2 describes, and it is what produces the 9–16×
// Spark advantage of Figure 7.
//
// Semantics: labels converge to the minimum core-point index of each
// density-connected component; border points adopt the minimum label
// among their core neighbours. Core co-clustering is therefore exactly
// sequential DBSCAN's; border assignment is min-label rather than
// first-come (an allowed DBSCAN tie-break, checked by eval.EquivCheck).
package mrdbscan

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/mapreduce"
	"sparkdbscan/internal/simtime"
)

// Config configures one MR-DBSCAN run.
type Config struct {
	Params dbscan.Params
	// Splits is the number of map tasks per round (default = cores).
	Splits int
	// MR is the simulated Hadoop cluster.
	MR mapreduce.Config
	// MaxRounds caps the iteration (default 64); the run errors if it
	// has not converged by then.
	MaxRounds int
	// UseCombiner enables a map-side min-combiner, collapsing each map
	// task's label candidates per point before the spill. The paper's
	// naive implementation has no combiner (the default here); the
	// combiner arm exists for the ablation bench.
	UseCombiner bool
}

// Result is a finished MR-DBSCAN run.
type Result struct {
	Labels      []int32
	NumClusters int
	NumNoise    int
	// Rounds is the number of MapReduce jobs executed (including the
	// final no-change round that detects convergence).
	Rounds int
	// MapSeconds/ReduceSeconds/SetupSeconds sum the per-round phase
	// makespans and job-submission overheads (rounds are serial: each
	// job must finish before the next is submitted).
	MapSeconds    float64
	ReduceSeconds float64
	SetupSeconds  float64
	TotalSeconds  float64
	// DriverSeconds covers per-round HDFS state rewrites and the final
	// relabeling.
	DriverSeconds float64
	Work          simtime.Work
}

type labelUpdate struct {
	point int32
	label int32
}

// Run executes MR-DBSCAN on ds.
func Run(ds *geom.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	if cfg.Splits <= 0 {
		cfg.Splits = cfg.MR.Cores
	}
	if cfg.Splits <= 0 {
		cfg.Splits = 1
	}
	if cfg.MR.ReduceTasks == 0 {
		// Hadoop's default is a single reduce task, and a naive
		// implementation (the paper wrote its own, as did we) keeps
		// it: the serial reduce phase every round is a large part of
		// why the paper's MapReduce speedups stall at 3.2x on 8 cores.
		cfg.MR.ReduceTasks = 1
	}
	n := ds.Len()
	model := cfg.MR.Model
	if model == nil {
		model = simtime.DefaultModel()
	}

	// Current labels: -1 unassigned/noise; cores start at their own
	// index. Written to (simulated) HDFS between rounds.
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}

	// Input splits: contiguous point-index ranges.
	splits := make([][]int32, cfg.Splits)
	for s := 0; s < cfg.Splits; s++ {
		lo := s * n / cfg.Splits
		hi := (s + 1) * n / cfg.Splits
		idx := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, int32(i))
		}
		splits[s] = idx
	}

	res := &Result{}
	datasetBytes := ds.SizeBytes()
	stateBytes := int64(n) * 4

	for round := 0; ; round++ {
		if round >= cfg.MaxRounds {
			return nil, fmt.Errorf("mrdbscan: no convergence after %d rounds", cfg.MaxRounds)
		}
		cur := labels // captured by this round's mapper (read-only)
		job := mapreduce.Job[int32, int32, int32, labelUpdate]{
			Name: fmt.Sprintf("mrdbscan-round-%d", round),
			Map: func(split int, input []int32, emit func(int32, int32), w *simtime.Work) error {
				// No executor-resident state: re-read the dataset and
				// the label file from HDFS and rebuild the index —
				// every round, every task.
				w.HDFSBytes += datasetBytes + stateBytes
				tree := kdtree.Build(ds)
				w.TreeBuildOps += tree.BuildOps()
				var stats kdtree.SearchStats
				var nbrs []int32
				for _, p := range input {
					nbrs = tree.Radius(ds.At(p), cfg.Params.Eps, nbrs[:0], &stats)
					w.QueueOps += int64(len(nbrs))
					if len(nbrs) < cfg.Params.MinPts {
						continue // non-core: receives, never propagates
					}
					lbl := cur[p]
					if lbl < 0 {
						lbl = p // cores self-label on first sight
					}
					// Propagate one hop.
					for _, q := range nbrs {
						emit(q, lbl)
					}
				}
				w.KDNodes += stats.NodesVisited
				w.DistComps += stats.DistComps
				return nil
			},
			Reduce: func(key int32, values []int32, emit func(labelUpdate), w *simtime.Work) error {
				best := values[0]
				for _, v := range values[1:] {
					w.Elems++
					if v < best {
						best = v
					}
				}
				emit(labelUpdate{point: key, label: best})
				return nil
			},
			KVBytes: func(int32, int32) int64 { return 8 },
		}
		if cfg.UseCombiner {
			job.Combine = func(key int32, values []int32, w *simtime.Work) int32 {
				best := values[0]
				for _, v := range values[1:] {
					w.Elems++
					if v < best {
						best = v
					}
				}
				return best
			}
		}
		updates, rep, err := mapreduce.Run(cfg.MR, job, splits)
		if err != nil {
			return nil, err
		}
		res.Rounds++
		res.MapSeconds += rep.MapSeconds
		res.ReduceSeconds += rep.ReduceSeconds
		res.SetupSeconds += rep.SetupSeconds
		res.Work.Add(rep.Work)

		changed := false
		next := append([]int32(nil), labels...)
		for _, u := range updates {
			if next[u.point] < 0 || u.label < next[u.point] {
				next[u.point] = u.label
				changed = true
			}
		}
		labels = next
		// Driver rewrites the label state to HDFS for the next round.
		var dw simtime.Work
		dw.HDFSBytes += stateBytes
		dw.Elems += int64(len(updates))
		res.Work.Add(dw)
		res.DriverSeconds += model.Seconds(dw)
		if !changed {
			break
		}
	}

	// Final relabel to dense ids.
	dense := make(map[int32]int32)
	res.Labels = make([]int32, n)
	for i, l := range labels {
		if l < 0 {
			res.Labels[i] = dbscan.Noise
			res.NumNoise++
			continue
		}
		id, ok := dense[l]
		if !ok {
			id = int32(len(dense))
			dense[l] = id
		}
		res.Labels[i] = id
	}
	res.NumClusters = len(dense)
	res.TotalSeconds = res.SetupSeconds + res.MapSeconds + res.ReduceSeconds + res.DriverSeconds
	return res, nil
}
