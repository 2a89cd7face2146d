package main

import (
	"fmt"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/knng"
	"sparkdbscan/internal/quest"
)

// kNN sizing: the graph degree, and the recall@k against the exact
// graph every NN-descent build must reach.
const (
	knnK      = 16
	minRecall = 0.9
)

// embedKNN measures the high-dimensional mode: NN-descent over the
// d=128 embedding mixture, then DBSCAN on the graph, with each build's
// recall checked against the exact graph built in set-up.
func embedKNN(r *run) error {
	var spec quest.EmbedSpec
	var ds *geom.Dataset
	var exact *knng.Graph
	err := r.setUp(func(s spanRef) error {
		spec = embedSpec(r.seed)
		var err error
		r.rec.do("quest.generate", s, func(spanRef) { ds, err = quest.GenerateEmbedding(spec) })
		if err != nil {
			return err
		}
		r.rec.do("knng.build_exact", s, func(spanRef) { exact, err = knng.BuildExact(ds, knnK, r.procs) })
		return err
	})
	if err != nil {
		return err
	}
	params := dbscan.Params{Eps: spec.Eps, MinPts: spec.MinPts}
	opts := knng.ApproxOptions{Seed: derive(r.seed, streamKNN), Workers: r.procs}

	// A job is one NN-descent build plus DBSCAN on its graph.
	var jobS, builds, plainBuilds, clusterings, recalls []float64
	err = r.repeat(func() error {
		if r.trace {
			start := time.Now()
			if _, err := knng.BuildNNDescent(ds, knnK, opts); err != nil {
				return fmt.Errorf("NN-descent: %w", err)
			}
			plainBuilds = append(plainBuilds, time.Since(start).Seconds())
		}
		var g *knng.Graph
		d := r.rec.do("knng.build", spanRef{}, func(spanRef) { g, err = knng.BuildNNDescent(ds, knnK, opts) })
		if err != nil {
			return fmt.Errorf("NN-descent: %w", err)
		}
		builds = append(builds, d.Seconds())
		var res *knng.Result
		d = r.rec.do("knng.dbscan", spanRef{}, func(spanRef) { res, err = knng.DBSCAN(g, params, knng.Options{Workers: r.procs}) })
		if err != nil {
			return fmt.Errorf("graph DBSCAN: %w", err)
		}
		clusterings = append(clusterings, d.Seconds())
		jobS = append(jobS, builds[len(builds)-1]+d.Seconds())
		recall, err := eval.RecallAtK(g.Idx, exact.Idx, knnK)
		if err != nil {
			return err
		}
		recalls = append(recalls, recall)
		r.check(recall >= minRecall && res.NumClusters > 0,
			"NN-descent recall@%d %.4f (bound %.2f), %d clusters", knnK, recall, minRecall, res.NumClusters)
		return nil
	})
	if err != nil {
		return err
	}
	logf("embed-knn: %d jobs, %.3fs each (build %.3fs), recall %.4f; jobs %s", len(jobS), median(jobS), median(builds), median(recalls), fmtSeconds(jobS))
	if !r.trace {
		r.put("job_s", "s", median(jobS))
		return nil
	}
	r.put("trace.overhead_pct", "%", 100*(median(builds)-median(plainBuilds))/median(plainBuilds))
	r.put("knng.build_s", "s", median(builds))
	r.put("knng.dbscan_s", "s", median(clusterings))
	r.put("knng.recall", "ratio", median(recalls))
	r.layerMedian("quest.generate_s", "quest.generate")
	return nil
}
