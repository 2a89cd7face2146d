package core

import (
	"fmt"
	"math/bits"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

// Config configures one parallel DBSCAN run.
type Config struct {
	// Params are eps and minPts.
	Params dbscan.Params
	// Partitions is the number of point ranges / executor tasks; the
	// paper sets partitions = cores. Default: the context's core
	// count.
	Partitions int
	// Merge configures the driver-side merge. The zero value is the
	// exact pair: SeedExact partials merged by MergeParallel, labels
	// byte-identical to sequential DBSCAN. MergePaper selects the
	// paper's pair instead: SeedSingle partials and Algorithm 4. The
	// pair also fixes range mode's layout: the exact pair cuts runs of
	// the driver kd-tree's leaf order (the paper's §VI future work),
	// MergePaper the paper's input-index ranges.
	Merge MergeOptions
	// MaxNeighbors > 0 enables the pruned range search the paper uses
	// for the 1m-point datasets.
	MaxNeighbors int
	// MinLocalClusterSize > 1 makes executors drop partial clusters
	// below this size before sending them (the paper's r1m filter).
	MinLocalClusterSize int
	// Partitioning selects how points reach executors: PartRange (the
	// paper's ranges over a full-dataset broadcast, the default)
	// or PartCell (grid cells with eps-halo replication over a
	// shuffle). Cell mode always runs the exact pair, so its labels are
	// pinned byte-identical to range mode and sequential DBSCAN; see
	// DESIGN.md §13.
	Partitioning PartitionMode
	// Cell tunes PartCell; ignored under PartRange.
	Cell CellOptions
	// Storage, when set with a non-nil FS, journals committed partial
	// clusters to HDFS and makes the run recoverable from storage
	// faults and a simulated driver crash mid-merge. Nil (or a nil FS)
	// leaves the pipeline byte-identical to the pre-storage-layer
	// runner.
	Storage *StorageOptions
}

// Phases is the per-phase time decomposition matching §IV-C:
// Δ (read+transform), kd-tree construction, executor computation, and
// driver merge. ReadTransform + TreeBuild + Broadcast + Merge are
// "time spent in driver"; Executors is "time spent in executors"
// (Figure 6's two bars).
type Phases struct {
	ReadTransform float64
	TreeBuild     float64
	Broadcast     float64
	Executors     float64
	Merge         float64
	// Journal is driver time spent writing the partial-cluster journal
	// (plus re-replication repair work). Zero without StorageOptions.
	Journal float64
	// Plan is driver time spent planning the cell grid (bounds scan +
	// side derivation). Zero under PartRange, so legacy decompositions
	// are unchanged.
	Plan float64
}

// Driver returns the total driver-side time.
func (p Phases) Driver() float64 {
	return p.ReadTransform + p.TreeBuild + p.Broadcast + p.Merge + p.Journal + p.Plan
}

// Total returns driver + executor time.
func (p Phases) Total() float64 { return p.Driver() + p.Executors }

// Result is the outcome of a parallel run.
type Result struct {
	Global *GlobalResult
	Phases Phases
	Report spark.Report
	// Stats aggregates index work across all executors.
	Stats kdtree.SearchStats
	// LocalNoise sums per-partition unclaimed points (diagnostics).
	LocalNoise int
	// Recovery summarizes journal and driver-recovery activity; zero
	// without StorageOptions.
	Recovery RecoveryReport
	// Dist describes how points were distributed to executors
	// (partitioning mode, broadcast vs shuffle volume, halo
	// replication).
	Dist DistStats
}

// broadcastPayload is what the driver ships to every executor: the
// dataset, the kd-tree over it, the parameters and the partition table
// (§IV-B lists exactly these). Under the exact pair DS and Tree are in
// leaf order and Perm maps a leaf position to its input id; under
// MergePaper they are in input order and Perm is nil.
type broadcastPayload struct {
	DS   *geom.Dataset
	Tree *kdtree.Tree
	Perm []int32
	Part Partitioner
	Opts LocalOptions
}

// Run executes the paper's full pipeline on the given Spark context:
// driver ingestion → kd-tree build → broadcast → per-partition local
// clustering with SEEDs → accumulator collection → driver merge.
func Run(sctx *spark.Context, ds *geom.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := geom.CheckFiniteDataset(ds); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := ds.Len()
	if cfg.Partitions <= 0 {
		cfg.Partitions = sctx.Config().Cores
	}
	if cfg.Partitions > n && n > 0 {
		cfg.Partitions = n
	}

	// A StorageOptions without a filesystem is inert: the run is
	// byte-identical to one with no storage options at all.
	st := cfg.Storage
	if st != nil && st.FS == nil {
		st = nil
	}

	// With a tracer attached, watch the filesystem so storage-fault
	// events (checksum failures, failovers, re-replication) land on the
	// phase whose reads caused them. Observation only: the event log
	// charges no work.
	if tr := sctx.Config().Tracer; tr != nil && st != nil && sctx.Config().Mode == spark.Virtual {
		tr.WatchFS(st.FS)
	}

	res := &Result{}
	driverBefore := func() float64 { return sctx.Report().DriverSeconds }

	// Phase 1: Δ — read the input from the (simulated) distributed
	// filesystem and transform it into Point RDD form (Algorithm 2
	// lines 1–2). The work is the byte volume plus one transform per
	// point.
	d0 := driverBefore()
	err := sctx.RunInDriver("read+transform", func(w *simtime.Work) error {
		if st != nil && st.InputFile != "" {
			// Read the named input through the replica-failover path,
			// so corrupt blocks and dead datanodes cost ingestion time.
			if _, err := st.FS.Read(st.InputFile, w); err != nil {
				return err
			}
		} else {
			w.HDFSBytes += ds.SizeBytes()
		}
		w.Elems += int64(n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Phases.ReadTransform = driverBefore() - d0

	// Phases 2–4: the partitioning stage distributes points to
	// executors (broadcast or shuffle), runs the local clustering and
	// returns partial clusters through the accumulator.
	stage := rangeStage
	if cfg.Partitioning == PartCell {
		// Cell mode pins the exact pair: labels become a pure function
		// of the point set and parameters, independent of grid shape
		// and accumulator commit order.
		cfg.Merge.Algo = MergeParallel
		stage = cellStage
	}
	// The merge fixes the seed mode: canonical labeling assumes the
	// SeedExact partial-cluster contract (Members hold only owned cores,
	// Members[0] lowest), Algorithm 4 the paper's SeedSingle rule.
	seedMode := SeedExact
	if cfg.Merge.Algo == MergePaper {
		seedMode = SeedSingle
	}
	opts := LocalOptions{
		Params:         cfg.Params,
		SeedMode:       seedMode,
		MaxNeighbors:   cfg.MaxNeighbors,
		MinClusterSize: cfg.MinLocalClusterSize,
	}

	acc := spark.SliceAccumulator[PartialCluster](sctx)
	var jr *journal
	if st != nil {
		// Journal every committed partial cluster in accumulator order,
		// so a replay reproduces the accumulator's slice — and hence the
		// merge's label numbering — byte for byte.
		jr = newJournal(st.FS, st.journalFile())
		acc.OnCommit(jr.commit)
	}
	noiseAcc := spark.CounterAccumulator(sctx)
	statsAcc := spark.NewAccumulator(sctx, kdtree.SearchStats{},
		func(a, b kdtree.SearchStats) kdtree.SearchStats { a.Add(b); return a })

	env := &stageEnv{
		sctx:  sctx,
		cfg:   &cfg,
		opts:  opts,
		acc:   acc,
		noise: noiseAcc,
		stats: statsAcc,
		res:   res,
		// Neither stage runs more than cfg.Partitions tasks.
		tables: make(chan *neighborTable, cfg.Partitions),
	}
	if err := stage(env, ds); err != nil {
		return nil, err
	}

	partials := acc.Value()
	res.LocalNoise = int(noiseAcc.Value())
	res.Stats = statsAcc.Value()

	// Phase 4b: account for the journal writes (driver-side work — the
	// accumulator lands at the driver, so appending commits to HDFS is
	// the driver's cost, independent of which executor finished first)
	// and for the namenode's background re-replication after datanode
	// loss.
	if jr != nil {
		d0 = driverBefore()
		err = sctx.RunInDriver("journal", func(w *simtime.Work) error {
			jw, err := jr.flush()
			if err != nil {
				return err
			}
			w.Add(jw)
			w.Add(st.FS.RepairWork())
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Phases.Journal = driverBefore() - d0
		res.Recovery.JournaledClusters = jr.count
		res.Recovery.JournalBytes = jr.bytes
	}

	// Phase 5: driver merge (parallel canonical / Algorithm 4).
	// MergeParallel runs on real goroutines and is priced under that
	// many driver cores; MergePaper meters everything as serial residue,
	// which makes RunInDriverPar collapse to RunInDriver pricing
	// exactly. With a simulated driver
	// crash, the first merge attempt dies at CrashPointFrac of its span,
	// a fresh driver replays the journal, and the merge runs on the
	// replayed partial clusters — which are the accumulator's slice byte
	// for byte, so labels are identical. Recovery reuses the same
	// (possibly parallel) merge path.
	mergeWorkers := cfg.Merge.effectiveWorkers()
	if st != nil && st.SimulateDriverCrash {
		res.Phases.Merge, err = sctx.RunInDriverPar("merge (recovered)", mergeWorkers, func(w, serial *simtime.Work) error {
			// The journal decode is one sequential byte stream: charged
			// to the serial residue.
			var replayW simtime.Work
			replayed, err := jr.replay(&replayW)
			if err != nil {
				return err
			}
			w.Add(replayW)
			serial.Add(replayW)
			if len(replayed) != res.Recovery.JournaledClusters {
				return fmt.Errorf("core: journal replayed %d clusters, journaled %d",
					len(replayed), res.Recovery.JournaledClusters)
			}
			res.Global = Merge(replayed, n, cfg.Merge)
			w.Add(res.Global.Work)
			serial.Add(res.Global.SerialWork)
			// The doomed first attempt's progress is wasted work the
			// recovered merge pays again: the whole ledger scaled to the
			// crash point, not just MergeOps — re-pricing a single field
			// silently dropped SortComps (and would drop any future
			// line).
			frac := st.crashPointFrac()
			w.Add(simtime.Scale(res.Global.Work, frac))
			serial.Add(simtime.Scale(res.Global.SerialWork, frac))
			res.Recovery.DriverCrashes = 1
			res.Recovery.ReplayedClusters = len(replayed)
			return nil
		})
	} else {
		res.Phases.Merge, err = sctx.RunInDriverPar("merge", mergeWorkers, func(w, serial *simtime.Work) error {
			res.Global = Merge(partials, n, cfg.Merge)
			w.Add(res.Global.Work)
			serial.Add(res.Global.SerialWork)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	res.Report = sctx.Report()
	return res, nil
}

// sortCost returns the comparison count of an n-element sort:
// n·⌈log₂ n⌉.
func sortCost(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return int64(n) * int64(bits.Len(uint(n-1)))
}
