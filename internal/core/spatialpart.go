package core

import (
	"fmt"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

// PartitionMode selects how Run distributes points to executors.
type PartitionMode int

const (
	// PartRange is the paper's design: points are split into contiguous
	// index ranges and the whole dataset plus its kd-tree is broadcast
	// to every executor. Broadcast volume is O(n) per executor — the
	// cost cell mode exists to remove.
	PartRange PartitionMode = iota
	// PartCell hashes points to grid cells (side derived from eps and a
	// target points-per-cell), shuffles each point to its home cell
	// plus every eps-halo neighbor cell, builds a per-cell kd-tree
	// executor-side and clusters each cell locally. Per-executor input
	// is O(n/parts + halo); only the O(cells)-sized grid plan is
	// broadcast.
	PartCell
)

func (m PartitionMode) String() string {
	switch m {
	case PartRange:
		return "range"
	case PartCell:
		return "cell"
	default:
		return fmt.Sprintf("PartitionMode(%d)", int(m))
	}
}

// ParsePartitionMode maps the CLI's -partition flag values.
func ParsePartitionMode(s string) (PartitionMode, error) {
	switch s {
	case "", "range":
		return PartRange, nil
	case "cell":
		return PartCell, nil
	default:
		return 0, fmt.Errorf("core: unknown partition mode %q (want range or cell)", s)
	}
}

// defaultTargetPointsPerCell sizes derived grids: enough cells to
// spread across executors, few enough that per-cell kd-trees amortize.
const defaultTargetPointsPerCell = 2000

// CellOptions tunes PartCell.
type CellOptions struct {
	// TargetPointsPerCell guides the derived cell side (0 = default
	// 2000). Ignored when CellSide is set.
	TargetPointsPerCell int
	// CellSide forces the grid edge length. Values below eps are legal:
	// the halo then spans multiple rings of neighbor cells.
	CellSide float64
}

// DistStats describes how one run distributed points to executors.
type DistStats struct {
	// Mode is the PartitionMode string ("range" or "cell").
	Mode string `json:"mode"`
	// Tasks is the number of local-clustering tasks.
	Tasks int `json:"tasks"`
	// BroadcastBytes is the per-executor broadcast payload: dataset +
	// kd-tree + partition table under range, the grid plan under cell.
	BroadcastBytes int64 `json:"broadcast_bytes"`
	// ShuffleBytes is the total byte·leg volume crossing the cell
	// shuffle (write leg + read leg); zero under range.
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// HaloPoints counts point replicas emitted into eps-halo neighbor
	// cells; zero under range.
	HaloPoints int64 `json:"halo_points"`
	// Cells is the number of non-empty home cells; GridCells the full
	// grid size; CellSide, SplitAxes and Ring the planned geometry
	// (edge length on the split axes, how many axes were split, halo
	// ring depth). All zero under range.
	Cells     int     `json:"cells,omitempty"`
	GridCells int64   `json:"grid_cells,omitempty"`
	CellSide  float64 `json:"cell_side,omitempty"`
	SplitAxes int     `json:"split_axes,omitempty"`
	Ring      int     `json:"ring,omitempty"`
}

// stageEnv bundles the run state a partitioning stage (rangeStage or
// cellStage) needs: the Spark context, the (defaulted) config, local
// options, the accumulators the driver reads afterwards, and the Result
// whose Phases/Dist fields the stage fills in.
type stageEnv struct {
	sctx  *spark.Context
	cfg   *Config
	opts  LocalOptions
	acc   *spark.Accumulator[[]PartialCluster]
	noise *spark.Accumulator[int64]
	stats *spark.Accumulator[kdtree.SearchStats]
	res   *Result
	// tables is the stage's free list of neighbour tables, with room
	// for one per task.
	tables chan *neighborTable
}

// takeTable lends a task a neighbour table: a free one, or a new one
// when every table is out. Tasks return theirs with putTable, so a
// stage makes no more tables than it runs tasks at once, and each
// keeps its grown buffers for the next task.
func (e *stageEnv) takeTable() *neighborTable {
	select {
	case t := <-e.tables:
		return t
	default:
		return new(neighborTable)
	}
}

func (e *stageEnv) putTable(t *neighborTable) {
	select {
	case e.tables <- t:
	default:
	}
}

func (e *stageEnv) driverSeconds() float64   { return e.sctx.Report().DriverSeconds }
func (e *stageEnv) executorSeconds() float64 { return e.sctx.Report().ExecutorSeconds }

// collect sends one local result to the driver through the accumulators
// (Algorithm 2 lines 26–28). It charges the transfer of the partial
// clusters and the local clustering's metered work to w.
func (e *stageEnv) collect(tc *spark.TaskContext, w *simtime.Work, lr *LocalResult) {
	for i := range lr.Clusters {
		sz := lr.Clusters[i].SizeBytes()
		w.SerBytes += sz
		w.NetBytes += sz
	}
	w.Add(lr.Work)
	e.acc.Add(tc, lr.Clusters)
	e.noise.Add(tc, int64(lr.LocalNoise))
	e.stats.Add(tc, lr.Stats)
}

// rangeStage is the broadcast design of §IV-B: driver kd-tree over the
// full dataset, full-payload broadcast, one LocalDBSCAN task per range.
// MergePaper keeps the paper's input-index ranges. The exact pair, whose
// labels do not depend on the layout, cuts runs of the tree's leaf
// order (the paper's §VI future work), leaving fewer partial clusters.
func rangeStage(env *stageEnv, ds *geom.Dataset) error {
	sctx, cfg := env.sctx, env.cfg
	n := ds.Len()
	part, err := NewPartitioner(n, cfg.Partitions)
	if err != nil {
		return err
	}

	// Build the kd-tree in the driver. Leaf-order ranges swap to the
	// leaf-ordered dataset and tree: one copy pass over the points,
	// and perm, the tree's order, maps positions back to input ids.
	var tree *kdtree.Tree
	var perm []int32
	d0 := env.driverSeconds()
	err = sctx.RunInDriver("kdtree build", func(w *simtime.Work) error {
		tree = kdtree.Build(ds)
		w.TreeBuildOps += tree.BuildOps()
		if cfg.Merge.Algo != MergePaper {
			perm = tree.Order()
			ds, tree = tree.LeafOrdered()
			w.Elems += int64(n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.res.Phases.TreeBuild = env.driverSeconds() - d0

	// Broadcast dataset + tree + parameters + partition table (§IV-B
	// lists exactly these), plus the permutation at 4 B per point.
	bcBytes := ds.SizeBytes() + tree.MemoryBytes() + 64 + 4*int64(len(perm))
	d0 = env.driverSeconds()
	bc := spark.NewBroadcast(sctx, broadcastPayload{
		DS:   ds,
		Tree: tree,
		Perm: perm,
		Part: part,
		Opts: env.opts,
	}, bcBytes)
	env.res.Phases.Broadcast = env.driverSeconds() - d0

	// The executor stage (Algorithm 2 lines 4–29). The RDD carries the
	// point indices; coordinates travel via the broadcast.
	indices := make([]int32, n)
	for i := range indices {
		indices[i] = int32(i)
	}
	rdd := spark.Parallelize(sctx, indices, cfg.Partitions)
	// Each RDD element stands for one Point record of d float64s.
	pointBytes := int64(ds.Dim*8 + 4)
	rdd.SetSizeFunc(func(int32) int64 { return pointBytes })

	e0 := env.executorSeconds()
	err = rdd.ForeachPartition(func(split int, in []int32, tc *spark.TaskContext) error {
		payload := bc.Value()
		lo, hi := payload.Part.Range(split)
		if len(in) != int(hi-lo) {
			return fmt.Errorf("core: partition %d got %d points, expected %d", split, len(in), hi-lo)
		}
		tab := env.takeTable()
		defer env.putTable(tab)
		lr, err := localDBSCAN(payload.DS, payload.Tree, payload.Part, split, payload.Opts, tab)
		if err != nil {
			return err
		}
		if payload.Perm != nil {
			mapIDs(lr.Clusters, payload.Perm)
		}
		var w simtime.Work
		env.collect(tc, &w, lr)
		tc.Charge(w)
		return nil
	})
	if err != nil {
		return err
	}
	env.res.Phases.Executors = env.executorSeconds() - e0

	env.res.Dist = DistStats{
		Mode:           PartRange.String(),
		Tasks:          cfg.Partitions,
		BroadcastBytes: bcBytes,
	}
	return nil
}
