package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
	"sparkdbscan/internal/trace"

	coredbscan "sparkdbscan/internal/core"
)

// The merge bench measures the one phase the paper's scaling curves
// hinge on: the driver-side merge. Figure 6c shows driver time climbing
// from 121 s to 2226 s as the partial-cluster count grows to 9279 at 32
// cores on c100k — the merge is serial, so adding executor cores only
// widens its share of the makespan (Fig. 8d's speedup plateau).
//
// Section A replays exactly that configuration: 9279 synthesized
// partial clusters (SeedExact contract — disjoint members, chain seeds,
// shared borders) merged by MergeParallel at 1/2/4/8 driver cores.
// Labels, the metered Work ledger and NumMerges must be byte-identical
// across every arm — the worker count is a pricing/scheduling change,
// never a semantic one — and the simulated phase time at 8 workers must
// beat one worker by the >= 2x the acceptance gate demands (the Amdahl
// residue is only the component sort, so the observed ratio is
// near-linear).
//
// Section B runs the full traced pipeline at a high core count twice —
// the merge on one driver core versus 8 — and reports the merge's share
// of the critical path. On one core the driver phase dominates the
// makespan; 8 workers must shrink that share below the one-core run's
// and below 90%.

// MergeBenchArm is one merge strategy at one worker count in Section A.
type MergeBenchArm struct {
	Algo    string `json:"algo"`
	Workers int    `json:"workers"`
	// SimSeconds is the simulated driver-phase time: the serial residue
	// at full cost plus the parallelizable remainder divided by workers.
	SimSeconds  float64 `json:"sim_seconds"`
	NumClusters int     `json:"clusters"`
	NumMerges   int     `json:"merges"`
	// Speedup is the one-worker arm's SimSeconds over this arm's.
	Speedup float64 `json:"speedup_vs_sequential"`
}

// MergePipelineRun is one traced end-to-end run in Section B.
type MergePipelineRun struct {
	Algo         string  `json:"algo"`
	Workers      int     `json:"workers"`
	MergeSeconds float64 `json:"merge_phase_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
	// MergeShare is the fraction of critical-path seconds inside the
	// merge driver span (trace.ShareByName over "merge").
	MergeShare float64 `json:"merge_critical_path_share"`
}

// MergeBenchResult is the BENCH_merge.json result body.
type MergeBenchResult struct {
	Partials        int                `json:"partial_clusters"`
	Points          int                `json:"points"`
	Components      int                `json:"components"`
	LabelsIdentical bool               `json:"labels_identical"`
	WorkIdentical   bool               `json:"work_identical"`
	SpeedupAt8      float64            `json:"speedup_at_8_workers"`
	Arms            []MergeBenchArm    `json:"arms"`
	PipelinePoints  int                `json:"pipeline_points"`
	PipelineCores   int                `json:"pipeline_cores"`
	PipelineParts   int                `json:"pipeline_partitions"`
	Pipeline        []MergePipelineRun `json:"pipeline"`
}

// synthPartials builds m partial clusters honoring the SeedExact
// contract at the paper's Fig. 6c shape: chains of chainLen partials
// linked by seeds (each non-head partial seeds the previous partial's
// lowest core), membersPer disjoint member points each, and one border
// point shared by every adjacent pair of partials — some pairs straddle
// a chain boundary, exercising the cross-component minimum-label claim.
// Returns the partials in a deterministically shuffled order (the
// accumulator commits in arbitrary order; canonical output must not
// care) and the total point count.
func synthPartials(m, chainLen, membersPer int) ([]coredbscan.PartialCluster, int) {
	borderBase := m * membersPer
	n := borderBase + (m+1)/2
	partials := make([]coredbscan.PartialCluster, m)
	for i := 0; i < m; i++ {
		pc := coredbscan.PartialCluster{Partition: int32(i % 64), Seq: int32(i / 64)}
		lo := i * membersPer
		for p := lo; p < lo+membersPer; p++ {
			pc.Members = append(pc.Members, int32(p))
		}
		if i%chainLen != 0 {
			// Seed into the previous partial's lowest core: a member
			// elsewhere, so the merge unions the two.
			pc.Seeds = append(pc.Seeds, int32((i-1)*membersPer))
		}
		// Border shared by partials 2k and 2k+1.
		pc.Borders = append(pc.Borders, int32(borderBase+i/2))
		partials[i] = pc
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(m, func(a, b int) { partials[a], partials[b] = partials[b], partials[a] })
	return partials, n
}

// runMergeBench runs both sections. c.Points sizes the Section B
// pipeline run (default 4000); smoke shrinks both sections for CI.
func runMergeBench(w io.Writer, c Config) (Report, error) {
	points, smoke := c.Points, c.Smoke
	const (
		chainLen   = 3 // partials per merged cluster
		membersPer = 10
	)
	m := 9279 // paper Fig. 6c: partial clusters at 32 cores on c100k
	if smoke {
		m = 1200
	}
	if points < 100 {
		points = 4000
	}
	if smoke && points > 2000 {
		points = 2000
	}
	partials, n := synthPartials(m, chainLen, membersPer)
	model := simtime.DefaultModel()

	report := &MergeBenchResult{
		Partials:        m,
		Points:          n,
		LabelsIdentical: true,
		WorkIdentical:   true,
	}

	var baseline *coredbscan.GlobalResult
	var baselineSec float64
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "algo\tworkers\tsim\tclusters\tmerges\tspeedup")
	for _, workers := range []int{1, 2, 4, 8} {
		res := coredbscan.Merge(partials, n, coredbscan.MergeOptions{Workers: workers})
		sec := model.ParallelSeconds(res.Work, res.SerialWork, workers)
		if baseline == nil {
			baseline = res
			baselineSec = sec
			report.Components = res.NumClusters
		} else {
			if !slices.Equal(res.Labels, baseline.Labels) {
				report.LabelsIdentical = false
			}
			if res.Work != baseline.Work || res.NumMerges != baseline.NumMerges {
				report.WorkIdentical = false
			}
		}
		arm := MergeBenchArm{
			Algo: coredbscan.MergeParallel.String(), Workers: workers,
			SimSeconds:  sec,
			NumClusters: res.NumClusters, NumMerges: res.NumMerges,
			Speedup: baselineSec / sec,
		}
		report.Arms = append(report.Arms, arm)
		fmt.Fprintf(tw, "%s\t%d\t%.3fs\t%d\t%d\t%.2fx\n",
			arm.Algo, arm.Workers, arm.SimSeconds,
			arm.NumClusters, arm.NumMerges, arm.Speedup)
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}
	report.SpeedupAt8 = report.Arms[len(report.Arms)-1].Speedup
	fmt.Fprintf(w, "speedup at 8 workers: %.2fx\n\n", report.SpeedupAt8)

	// ---- Section B: merge share of the traced pipeline critical path.
	const (
		cores      = 32
		cpe        = 4
		partitions = 48
	)
	spec, err := quest.ByName("c10k")
	if err != nil {
		return Report{}, err
	}
	ds, err := quest.Generate(spec.Scaled(points))
	if err != nil {
		return Report{}, err
	}
	report.PipelinePoints = ds.Len()
	report.PipelineCores = cores
	report.PipelineParts = partitions

	pipeline := func(workers int) (MergePipelineRun, error) {
		rec := trace.NewRecorder()
		sctx := spark.NewContext(spark.Config{
			Cores: cores, CoresPerExecutor: cpe, Seed: 42, Tracer: rec,
		})
		res, err := coredbscan.Run(sctx, ds, coredbscan.Config{
			Params:     dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts},
			Partitions: partitions,
			Merge:      coredbscan.MergeOptions{Workers: workers},
		})
		if err != nil {
			return MergePipelineRun{}, err
		}
		return MergePipelineRun{
			Algo: coredbscan.MergeParallel.String(), Workers: workers,
			MergeSeconds: res.Phases.Merge,
			TotalSeconds: res.Phases.Total(),
			MergeShare:   trace.ShareByName(rec.CriticalPath(), "merge"),
		}, nil
	}
	seq, err := pipeline(1)
	if err != nil {
		return Report{}, err
	}
	par, err := pipeline(8)
	if err != nil {
		return Report{}, err
	}
	report.Pipeline = []MergePipelineRun{seq, par}
	for _, p := range report.Pipeline {
		fmt.Fprintf(w, "pipeline %-10s workers=%d  merge %.3fs / total %.3fs  critical-path share %.1f%%\n",
			p.Algo, p.Workers, p.MergeSeconds, p.TotalSeconds, 100*p.MergeShare)
	}

	rep := Report{
		Method: "Section A merges 9279 synthesized SeedExact partial clusters (paper Fig. 6c, " +
			"32 cores c100k: chains linked by seeds, shared borders) with " +
			"MergeParallel at 1/2/4/8 driver cores; labels, Work and " +
			"NumMerges are asserted identical, sim_seconds prices the serial sort residue " +
			"at full cost plus the rest divided by workers. Section B runs the traced " +
			"pipeline end to end and reports the merge's critical-path share.",
		Result: report,
	}
	rep.gate("labels-identical", report.LabelsIdentical,
		"labels identical across 1/2/4/8 workers: %v", report.LabelsIdentical)
	rep.gate("work-identical", report.WorkIdentical,
		"metered work and merge count identical across 1/2/4/8 workers: %v", report.WorkIdentical)
	rep.gate("speedup-at-8", report.SpeedupAt8 >= 2,
		"simulated merge speedup at 8 workers %.2fx (want >= 2x)", report.SpeedupAt8)
	rep.gate("critical-path-share", par.MergeShare < seq.MergeShare && par.MergeShare < 0.9,
		"merge critical-path share %.3f at 8 workers vs %.3f at 1 (want smaller, and < 0.9)",
		par.MergeShare, seq.MergeShare)
	return rep, nil
}
