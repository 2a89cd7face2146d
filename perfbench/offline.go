package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparkdbscan/internal/core"
	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/spark"
)

// rangePartitions gives the merge tens of thousands of partial
// clusters on the c100k mixture.
const rangePartitions = 64

// cellTarget is the cell planner's occupancy target. At the default
// (2000 points per cell) the planner's sampled side search lands on
// different grids for different seeds of this mixture (784 to 1225
// cells, 0.5 to 0.6 million halo points), which moves cluster_cell_s by
// a sixth between seeds; at 3000 it picks the same grid (two split
// axes, side about 70, 225 cells) for every seed.
const cellTarget = 3000

// offline runs the paper's pipeline (core.Run at spark.Real) on the
// c100k mixture in both partitioning modes and checks the labels
// against sequential DBSCAN byte for byte.
func offline(r *run) error {
	var in *clustered
	err := r.setUp(func(s spanRef) (err error) {
		in, err = newClustered(r, s)
		return err
	})
	if err != nil {
		return err
	}
	ds, want := in.ds, in.ref.Labels
	if r.trace {
		return offlineTraced(r, ds, want)
	}

	// A job is one core.Run in each partitioning mode.
	var jobS, rangeS, cellS []float64
	err = r.repeat(func() error {
		var job float64
		for _, mode := range []core.PartitionMode{core.PartRange, core.PartCell} {
			res, wall, err := runCore(ds, mode, spark.Real, r.procs)
			if err != nil {
				return err
			}
			r.check(equalLabels(res.Global.Labels, want), "%s-mode labels differ from sequential DBSCAN", mode)
			if mode == core.PartRange {
				rangeS = append(rangeS, wall.Seconds())
			} else {
				cellS = append(cellS, wall.Seconds())
			}
			job += wall.Seconds()
		}
		jobS = append(jobS, job)
		return nil
	})
	if err != nil {
		return err
	}
	r.put("job_s", "s", median(jobS))
	logf("offline: %d jobs, %.3fs each (range %.3fs, cell %.3fs); jobs %s", len(jobS), median(jobS), median(rangeS), median(cellS), fmtSeconds(jobS))
	return nil
}

// clustered is a run's input: a dataset drawn from the mixture, its
// sequential-DBSCAN result (the reference every engine is checked
// against) with the kd-tree it used, and a second draw of the mixture
// that serving workloads use as queries.
type clustered struct {
	ds   *geom.Dataset
	ref  *dbscan.Result
	tree *kdtree.Tree
	bank *geom.Dataset
}

func newClustered(r *run, s spanRef) (*clustered, error) {
	mix, err := newMixture(r.rec, s)
	if err != nil {
		return nil, err
	}
	c := &clustered{ds: mix.draw(mix.spec.N, derive(r.seed, streamMixture))}
	if c.ref, c.tree, err = sequentialDBSCAN(r.rec, s, c.ds); err != nil {
		return nil, err
	}
	c.bank = mix.draw(bankSize, derive(r.seed, streamQueries))
	return c, nil
}

// sequentialDBSCAN builds a kd-tree over ds and runs sequential DBSCAN.
func sequentialDBSCAN(rec *recorder, s spanRef, ds *geom.Dataset) (*dbscan.Result, *kdtree.Tree, error) {
	var tree *kdtree.Tree
	rec.do("kdtree.build", s, func(spanRef) { tree = kdtree.Build(ds) })
	var res *dbscan.Result
	var err error
	rec.do("dbscan.run", s, func(spanRef) { res, err = dbscan.Run(ds, tree, mixtureParams) })
	return res, tree, err
}

// runCore runs core.Run once on a fresh context, starting from a
// collected heap, and returns its wall time.
func runCore(ds *geom.Dataset, mode core.PartitionMode, clock spark.Mode, procs int) (*core.Result, time.Duration, error) {
	sctx := spark.NewContext(spark.Config{Cores: procs, Mode: clock, Seed: 1})
	runtime.GC()
	start := time.Now()
	res, err := core.Run(sctx, ds, core.Config{
		Params:       mixtureParams,
		Partitions:   rangePartitions,
		Partitioning: mode,
		Merge:        core.MergeOptions{Algo: core.MergeParallel, Workers: procs},
		Cell:         core.CellOptions{TargetPointsPerCell: cellTarget},
	})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("core.Run (%s, %s): %w", mode, clock, err)
	}
	return res, wall, nil
}

func equalLabels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// composed is the timing of one range pipeline rebuilt from its
// exported pieces.
type composed struct {
	wall, build, local, merge time.Duration
	partitions                []time.Duration
	global                    *core.GlobalResult
}

// composeRange runs the range pipeline from the layers' exported
// functions — kdtree.Build, core.NewPartitioner, core.LocalDBSCAN
// (SeedExact) over procs goroutines, core.Merge (MergeParallel) — with
// a span around each call when rec is non-nil.
func composeRange(rec *recorder, ds *geom.Dataset, procs int) (composed, error) {
	var c composed
	var err error
	c.wall = rec.do("offline.range", spanRef{}, func(s spanRef) {
		var tree *kdtree.Tree
		c.build = rec.do("kdtree.build", s, func(spanRef) { tree = kdtree.Build(ds) })
		var part core.Partitioner
		rec.do("core.partition", s, func(spanRef) { part, err = core.NewPartitioner(ds.Len(), rangePartitions) })
		if err != nil {
			return
		}
		opts := core.LocalOptions{Params: mixtureParams, SeedMode: core.SeedExact}
		locals := make([]*core.LocalResult, rangePartitions)
		errs := make([]error, rangePartitions)
		c.partitions = make([]time.Duration, rangePartitions)
		c.local = rec.do("core.local", s, func(ls spanRef) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := int(next.Add(1) - 1); p < rangePartitions; p = int(next.Add(1) - 1) {
						c.partitions[p] = rec.do("core.local.partition", ls, func(spanRef) {
							locals[p], errs[p] = core.LocalDBSCAN(ds, tree, part, p, opts)
						})
					}
				}()
			}
			wg.Wait()
		})
		var partials []core.PartialCluster
		for p, l := range locals {
			if errs[p] != nil {
				err = errs[p]
				return
			}
			partials = append(partials, l.Clusters...)
		}
		c.merge = rec.do("core.merge", s, func(spanRef) {
			c.global = core.Merge(partials, ds.Len(), core.MergeOptions{Algo: core.MergeParallel, Workers: procs})
		})
	})
	if err != nil {
		return c, fmt.Errorf("composed range pipeline: %w", err)
	}
	return c, nil
}

// phaseList names the Real-mode Phases entries of one mode.
func phaseList(p core.Phases, mode core.PartitionMode) []struct {
	name string
	v    float64
} {
	type ph = struct {
		name string
		v    float64
	}
	out := []ph{{"read_transform", p.ReadTransform}}
	if mode == core.PartRange {
		out = append(out, ph{"tree_build", p.TreeBuild})
	} else {
		out = append(out, ph{"plan", p.Plan})
	}
	return append(out, ph{"broadcast", p.Broadcast}, ph{"executors", p.Executors}, ph{"merge", p.Merge})
}

// offlineTraced is the per-layer run of the offline workload: the range
// pipeline composed from exported pieces, untraced and traced, plus
// core.Run in both modes on the wall clock and on the simulated clock.
func offlineTraced(r *run, ds *geom.Dataset, want []int32) error {
	// The simulated clock prices metered work, so one Virtual run per
	// mode gives its prediction exactly.
	sim := map[core.PartitionMode]core.Phases{}
	for _, mode := range []core.PartitionMode{core.PartRange, core.PartCell} {
		res, _, err := runCore(ds, mode, spark.Virtual, r.procs)
		if err != nil {
			return err
		}
		r.check(equalLabels(res.Global.Labels, want), "%s-mode Virtual labels differ from sequential DBSCAN", mode)
		sim[mode] = res.Phases
	}

	var plain, traced []composed
	wall := map[core.PartitionMode][]float64{}
	phases := map[core.PartitionMode][]core.Phases{}
	last := map[core.PartitionMode]*core.Result{}
	err := r.repeat(func() error {
		for _, rec := range []*recorder{nil, r.rec} {
			c, err := composeRange(rec, ds, r.procs)
			if err != nil {
				return err
			}
			r.check(equalLabels(c.global.Labels, want), "composed range labels differ from sequential DBSCAN")
			if rec == nil {
				plain = append(plain, c)
			} else {
				traced = append(traced, c)
			}
		}
		for _, mode := range []core.PartitionMode{core.PartRange, core.PartCell} {
			res, w, err := runCore(ds, mode, spark.Real, r.procs)
			if err != nil {
				return err
			}
			r.check(equalLabels(res.Global.Labels, want), "%s-mode labels differ from sequential DBSCAN", mode)
			wall[mode] = append(wall[mode], w.Seconds())
			phases[mode] = append(phases[mode], res.Phases)
			last[mode] = res
		}
		return nil
	})
	if err != nil {
		return err
	}

	med := func(cs []composed, f func(composed) time.Duration) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c).Seconds()
		}
		return median(xs)
	}
	build := med(traced, func(c composed) time.Duration { return c.build })
	local := med(traced, func(c composed) time.Duration { return c.local })
	merge := med(traced, func(c composed) time.Duration { return c.merge })
	r.put("kdtree.build_s", "s", build)
	r.put("core.local_s", "s", local)
	r.put("core.local_span_s", "s", med(traced, func(c composed) time.Duration {
		var sum time.Duration
		for _, d := range c.partitions {
			sum += d
		}
		return sum
	}))
	skews := make([]float64, len(traced))
	for i, c := range traced {
		var sum, slowest time.Duration
		for _, d := range c.partitions {
			sum += d
			slowest = max(slowest, d)
		}
		skews[i] = slowest.Seconds() / (sum.Seconds() / float64(len(c.partitions)))
	}
	r.put("core.local_skew", "ratio", median(skews))
	r.put("core.merge_s", "s", merge)
	g := traced[len(traced)-1].global
	r.put("core.partials", "count", float64(g.NumPartialClusters))
	r.put("dsu.merges", "count", float64(g.NumMerges))
	r.put("spark.overhead_s", "s", median(wall[core.PartRange])-(build+local+merge))
	tracedWall := med(traced, func(c composed) time.Duration { return c.wall })
	plainWall := med(plain, func(c composed) time.Duration { return c.wall })
	r.put("trace.overhead_pct", "%", 100*(tracedWall-plainWall)/plainWall)

	st := last[core.PartRange].Stats
	r.put("kdtree.nodes_visited", "count", float64(st.NodesVisited))
	r.put("kdtree.dist_comps", "count", float64(st.DistComps))
	r.put("kdtree.reported", "count", float64(st.Reported))

	cell := last[core.PartCell]
	r.put("core.halo_points", "count", float64(cell.Dist.HaloPoints))
	r.put("core.shuffle_bytes", "B", float64(cell.Dist.ShuffleBytes))
	for _, mode := range []core.PartitionMode{core.PartRange, core.PartCell} {
		gaps := make([]float64, len(wall[mode]))
		for i, w := range wall[mode] {
			gaps[i] = w - phases[mode][i].Total()
		}
		name := "core.unattributed_s"
		if mode == core.PartRange {
			name = "core.unattributed_range_s"
		}
		r.put(name, "s", median(gaps))
		simulated := phaseList(sim[mode], mode)
		for k, ph := range simulated {
			r.put(fmt.Sprintf("simtime.%s.%s_sim_s", mode, ph.name), "s", ph.v)
			// In Real mode the executors share the driver's memory, so a
			// broadcast adds no driver time and its phase reads 0; only the
			// simulated price is reported.
			if ph.name == "broadcast" {
				continue
			}
			var real []float64
			for _, p := range phases[mode] {
				real = append(real, phaseList(p, mode)[k].v)
			}
			r.put(fmt.Sprintf("core.phase.%s.%s_s", mode, ph.name), "s", median(real))
			if ph.v > 0 {
				r.put(fmt.Sprintf("simtime.%s.%s_ratio", mode, ph.name), "ratio", median(real)/ph.v)
			}
		}
	}
	var plans []float64
	for _, p := range phases[core.PartCell] {
		plans = append(plans, p.Plan)
	}
	r.put("core.plan_s", "s", median(plans))
	r.put("core.run_range_s", "s", median(wall[core.PartRange]))
	r.put("core.run_cell_s", "s", median(wall[core.PartCell]))
	r.layerMedian("quest.generate_s", "quest.generate")
	r.layerMedian("dbscan.run_s", "dbscan.run")
	logf("offline traced: %d repetitions, composed %.3fs traced / %.3fs untraced, core.Run range %.3fs, cell %.3fs",
		len(traced), tracedWall, plainWall, median(wall[core.PartRange]), median(wall[core.PartCell]))
	return nil
}
