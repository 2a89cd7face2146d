package core

import (
	"fmt"
	"math"
	"sort"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

// cellEmit is one map-side shuffle record: point idx goes to the cell
// of the given rank (either as its home point or as an eps-halo
// replica).
type cellEmit struct {
	cell int64 // CellGrid rank
	idx  int32
	halo bool
}

// splitEmits is one map task's output, tagged with its split: the
// accumulator commits tasks in any order, the grouping reads them back
// in split order.
type splitEmits struct {
	split int
	emits []cellEmit
}

// cellInput is one non-empty cell's materialized reduce-side input:
// the points homed there plus the halo replicas it received, both in
// ascending global index order.
type cellInput struct {
	home []int32
	halo []int32
}

// cellPlan is the only thing cell mode broadcasts: the grid geometry,
// the local options and the cell→task assignment — O(cells) bytes,
// instead of range mode's O(n) dataset + tree payload.
type cellPlan struct {
	Grid   *CellGrid
	Opts   LocalOptions
	Starts []int32 // task t owns dense cells [Starts[t], Starts[t+1])
}

// cellStage implements eps-halo cell partitioning: a map stage assigns
// every point to its home cell and replicates it into each neighbor
// cell whose envelope is within eps, a shuffle groups the emissions by
// cell, and a second stage clusters each cell against a kd-tree built
// over just that cell's points. No full-dataset broadcast ever happens.
func cellStage(env *stageEnv, ds *geom.Dataset) error {
	sctx, cfg := env.sctx, env.cfg
	n := ds.Len()
	env.res.Dist = DistStats{Mode: PartCell.String()}
	if n == 0 {
		return nil
	}
	pointBytes := int64(ds.Dim*8 + 4)

	// Plan the grid in the driver: one bounds scan plus the cell-side
	// derivation. This is the entire driver-side preprocessing — no
	// global kd-tree is built.
	var grid *CellGrid
	d0 := env.driverSeconds()
	err := sctx.RunInDriver("partition plan", func(w *simtime.Work) error {
		g, err := PlanCellGrid(ds, cfg.Params.Eps, cfg.Cell.CellSide, cfg.Cell.TargetPointsPerCell)
		if err != nil {
			return err
		}
		grid = g
		w.Elems += int64(n) + g.PlanOps // bounds scan + sampled side search
		return nil
	})
	if err != nil {
		return err
	}
	if grid.NumCells() == math.MaxInt64 {
		return fmt.Errorf("core: cell side %g gives more grid cells than an int64 rank can number; "+
			"raise Cell.CellSide or Cell.TargetPointsPerCell", grid.SplitSide)
	}
	env.res.Phases.Plan = env.driverSeconds() - d0

	// Map stage: each task quantizes its slice of points and emits one
	// record per (point, receiving cell). Emissions travel through an
	// accumulator so task retries stay exactly-once; the per-byte
	// shuffle write leg is charged here, the read leg in the cell
	// stage. Coordinates are read from the task's own input split —
	// narrow, no broadcast needed.
	indices := make([]int32, n)
	for i := range indices {
		indices[i] = int32(i)
	}
	rdd := spark.Parallelize(sctx, indices, cfg.Partitions)
	rdd.SetSizeFunc(func(int32) int64 { return pointBytes })
	emitAcc := spark.SliceAccumulator[splitEmits](sctx)

	e0 := env.executorSeconds()
	err = rdd.ForeachPartition(func(split int, in []int32, tc *spark.TaskContext) error {
		var w simtime.Work
		emits := emitCells(grid, ds, in, pointBytes, &w)
		tc.Charge(w)
		emitAcc.Add(tc, []splitEmits{{split, emits}})
		return nil
	})
	if err != nil {
		return err
	}
	mapSeconds := env.executorSeconds() - e0

	// Group the emissions into per-cell inputs. This stands in for the
	// shuffle files on executor-local disk: the write leg was charged
	// to the map tasks above, the read leg is charged to the cell tasks
	// below, and the grouping itself is unpriced driver work whose
	// result is independent of commit order.
	bySplit := make([][]cellEmit, rdd.NumPartitions())
	for _, se := range emitAcc.Value() {
		bySplit[se.split] = se.emits
	}
	cells, emitted := groupCells(bySplit)

	// Assign cells to tasks with longest-processing-time-first over a
	// quadratic work proxy: a cell's clustering cost is dominated by
	// home queries scanning home+halo candidates, so home·(home+halo)
	// tracks it far better than raw point counts — balancing by counts
	// alone lets one dense cell serialize its task. The assignment is
	// deterministic (stable sort, lowest-index least-loaded task) and
	// the cells slice is permuted so each task owns a contiguous run.
	tasks := cfg.Partitions
	if tasks > len(cells) {
		tasks = len(cells)
	}
	order := make([]int, len(cells))
	proxy := make([]int64, len(cells))
	var readBytes int64
	for i, cl := range cells {
		order[i] = i
		nl := int64(len(cl.home) + len(cl.halo))
		proxy[i] = int64(len(cl.home))*nl + nl
		readBytes += pointBytes * nl
	}
	sort.SliceStable(order, func(a, b int) bool { return proxy[order[a]] > proxy[order[b]] })
	taskOf := make([]int, len(cells))
	loads := make([]int64, tasks)
	for _, ci := range order {
		least := 0
		for t := 1; t < tasks; t++ {
			if loads[t] < loads[least] {
				least = t
			}
		}
		taskOf[ci] = least
		loads[least] += proxy[ci]
	}
	packed := make([]cellInput, 0, len(cells))
	starts := make([]int32, 1, tasks+1)
	for t := 0; t < tasks; t++ {
		for ci, cl := range cells {
			if taskOf[ci] == t {
				packed = append(packed, cl)
			}
		}
		starts = append(starts, int32(len(packed)))
	}
	cells = packed

	// Broadcast the plan: grid geometry, options, cell→task table.
	// O(cells) bytes — this is the line that replaces range mode's
	// O(n) dataset+tree payload.
	bcBytes := grid.SizeBytes() + int64(len(cells))*int64(4*ds.Dim) + int64(len(starts))*4 + 64
	d0 = env.driverSeconds()
	bc := spark.NewBroadcast(sctx, cellPlan{Grid: grid, Opts: env.opts, Starts: starts}, bcBytes)
	env.res.Phases.Broadcast = env.driverSeconds() - d0

	// Cell stage: each task reads its cells' shuffle input, builds a
	// per-cell kd-tree and clusters the cell's home points. Partial
	// clusters flow through the same accumulator as range mode, so
	// journaling and driver-crash replay work unchanged.
	taskIDs := make([]int32, tasks)
	for t := range taskIDs {
		taskIDs[t] = int32(t)
	}
	cellRDD := spark.Parallelize(sctx, taskIDs, tasks)
	e0 = env.executorSeconds()
	err = cellRDD.ForeachPartition(func(split int, _ []int32, tc *spark.TaskContext) error {
		plan := bc.Value()
		var w simtime.Work
		tab := env.takeTable()
		defer env.putTable(tab)
		for ci := plan.Starts[split]; ci < plan.Starts[split+1]; ci++ {
			cell := cells[ci]
			nLocal := int64(len(cell.home) + len(cell.halo))
			w.ShuffleBytes += pointBytes * nLocal // shuffle read leg
			w.HashOps += nLocal                   // group records by cell
			lr, err := cellLocalDBSCAN(ds, cell, int32(ci), plan.Opts, tab)
			if err != nil {
				return err
			}
			env.collect(tc, &w, lr)
		}
		tc.Charge(w)
		return nil
	})
	if err != nil {
		return err
	}
	env.res.Phases.Executors = mapSeconds + (env.executorSeconds() - e0)

	env.res.Dist = DistStats{
		Mode:           PartCell.String(),
		Tasks:          tasks,
		BroadcastBytes: bcBytes,
		ShuffleBytes:   int64(emitted)*pointBytes + readBytes,
		HaloPoints:     int64(emitted) - int64(n),
		Cells:          len(cells),
		GridCells:      grid.NumCells(),
		CellSide:       grid.SplitSide,
		SplitAxes:      grid.SplitAxes,
		Ring:           grid.Ring,
	}
	return nil
}

// emitCells is one map task's body: every point of in is emitted to
// its home cell, then replicated into each cell its eps-halo reaches.
// The records come out in the order of in, and the work is metered
// into w.
func emitCells(grid *CellGrid, ds *geom.Dataset, in []int32, pointBytes int64, w *simtime.Work) []cellEmit {
	emits := make([]cellEmit, 0, len(in))
	home := make([]int32, ds.Dim) // HaloCells scratch, reused per point
	for _, idx := range in {
		p := ds.At(idx)
		w.Elems++ // quantize to the home cell
		emits = append(emits, cellEmit{grid.KeyOf(p), idx, false})
		w.HashOps++
		w.ShuffleBytes += pointBytes
		w.Elems += grid.HaloCells(p, home, func(rank int64) {
			emits = append(emits, cellEmit{rank, idx, true})
			w.HashOps++
			w.ShuffleBytes += pointBytes
			w.HaloPoints++
		})
	}
	return emits
}

// groupCells is the shuffle's reduce-side grouping: it buckets the
// map tasks' emissions, read in split order, into one input per cell
// that homes a point, in ascending cell-rank order. Splits are
// contiguous ascending index ranges and each task emits in index
// order, so every cell's home and halo lists come out ascending, as a
// sort by (cell, index) would leave them. It also returns the number
// of emissions.
func groupCells(bySplit [][]cellEmit) (cells []cellInput, emitted int) {
	// Rank the distinct cells once: a dense id per cell in first-seen
	// order, with its home and halo counts.
	dense := make(map[int64]int32)
	var ranks []int64
	var nHome, nHalo []int
	var homeLen, haloLen int
	for _, emits := range bySplit {
		emitted += len(emits)
		for _, e := range emits {
			d, ok := dense[e.cell]
			if !ok {
				d = int32(len(ranks))
				dense[e.cell] = d
				ranks = append(ranks, e.cell)
				nHome = append(nHome, 0)
				nHalo = append(nHalo, 0)
			}
			if e.halo {
				nHalo[d]++
				haloLen++
			} else {
				nHome[d]++
				homeLen++
			}
		}
	}
	byRank := make([]int32, len(ranks))
	for d := range byRank {
		byRank[d] = int32(d)
	}
	sort.Slice(byRank, func(a, b int) bool { return ranks[byRank[a]] < ranks[byRank[b]] })

	// Carve every cell's lists out of two backing arrays, so the
	// bucketing pass below appends without reallocating. A cell that
	// received only halo replicas owns nothing and gets no input; the
	// map side already paid for the wasted copies.
	homeBuf := make([]int32, homeLen)
	haloBuf := make([]int32, haloLen)
	slot := make([]int32, len(ranks)) // dense id -> index in cells, or -1
	for _, d := range byRank {
		slot[d] = -1
		if nHome[d] == 0 {
			continue
		}
		slot[d] = int32(len(cells))
		cells = append(cells, cellInput{home: homeBuf[:0:nHome[d]], halo: haloBuf[:0:nHalo[d]]})
		homeBuf, haloBuf = homeBuf[nHome[d]:], haloBuf[nHalo[d]:]
	}

	for _, emits := range bySplit {
		for _, e := range emits {
			c := slot[dense[e.cell]]
			if c < 0 {
				continue
			}
			if e.halo {
				cells[c].halo = append(cells[c].halo, e.idx)
			} else {
				cells[c].home = append(cells[c].home, e.idx)
			}
		}
	}
	return cells, emitted
}

// cellLocalDBSCAN clusters one cell: it assembles the cell's local
// dataset (home points first, then halo replicas), builds a kd-tree
// over it, and runs the shared SeedExact expansion over the home range.
// Halo points are never expanded — a home core within eps of a foreign
// core records it as a Seed, and the driver's canonical merge unions
// the two cells' clusters through it. Emitted indices are global.
// Uncapped runs answer the home points in RadiusBlock blocks, taken in
// the cell tree's leaf order, through tab.
func cellLocalDBSCAN(ds *geom.Dataset, cell cellInput, rank int32, opts LocalOptions,
	tab *neighborTable) (*LocalResult, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	res := &LocalResult{Partition: int(rank)}
	nHome := len(cell.home)
	if nHome == 0 {
		return res, nil
	}

	// Assemble the local dataset; local index k maps to global ids[k],
	// home points occupy [0, nHome).
	ids := make([]int32, 0, nHome+len(cell.halo))
	ids = append(append(ids, cell.home...), cell.halo...)
	local := geom.NewDataset(len(ids), ds.Dim)
	for k, gi := range ids {
		local.Set(int32(k), ds.At(gi))
	}
	res.Work.Elems += int64(len(ids))

	// The per-cell tree: built executor-side, over this cell only.
	tree := kdtree.Build(local)
	res.Work.TreeBuildOps += tree.BuildOps()

	var leaf []int32
	if blockTree(tree, opts) != nil {
		tab.leaf = tab.leaf[:0]
		for _, p := range tree.Order() {
			if p < int32(nHome) {
				tab.leaf = append(tab.leaf, p)
			}
		}
		leaf = tab.leaf
	}
	clusterRange(local, tree, 0, int32(nHome), Partitioner{}, opts, res, leaf, tab)
	mapIDs(res.Clusters, ids)
	return res, nil
}
