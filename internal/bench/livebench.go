package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
	"sparkdbscan/internal/rng"
	"sparkdbscan/internal/serve"
)

// The live benchmark measures the mutable serving layer (internal/
// live) on the wall clock, in the same eps=22/d=10 serving regime as
// BENCH_serve so the churn numbers are comparable to the frozen
// baseline. Three questions, three arms:
//
//  1. Update throughput: how fast does the single-writer path absorb
//     inserts and deletes (epoch publish included)?
//  2. Read tail under churn: what does a concurrent write stream do to
//     read p99 and availability, versus the same server with no
//     writes?
//  3. Staleness at reconcile: how far from from-scratch DBSCAN (ARI)
//     has the model drifted when the threshold fires, what does the
//     reconcile cost, and does it restore exactness?
//
// The gates (availability, post-reconcile ARI, drift bound) fail the
// run — the CI smoke run fails the process on regression.

// LiveUpdateCell is the direct-model mutation-throughput arm.
type LiveUpdateCell struct {
	Ops           int     `json:"ops"`
	Inserts       int     `json:"inserts"`
	Deletes       int     `json:"deletes"`
	Seconds       float64 `json:"seconds"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	FinalEpoch    uint64  `json:"final_epoch"`
	Promotions    uint64  `json:"promotions"`
	Demotions     uint64  `json:"demotions"`
}

// LiveChurnCell is one read arm: baseline (no writes) or churn.
type LiveChurnCell struct {
	Name          string  `json:"name"`
	WriteRate     float64 `json:"write_rate"`
	ReadQPS       float64 `json:"read_qps"`
	Availability  float64 `json:"availability"`
	P50us         float64 `json:"p50_us"`
	P99us         float64 `json:"p99_us"`
	Writes        uint64  `json:"writes"`
	WriteErrors   uint64  `json:"write_errors"`
	WriteP99us    float64 `json:"write_p99_us"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// LiveReconcileCell is the staleness arm.
type LiveReconcileCell struct {
	Mutations      int     `json:"mutations"`
	DriftAtTrigger float64 `json:"drift_at_trigger"`
	PreARI         float64 `json:"pre_ari"`
	Staleness      float64 `json:"staleness"` // 1 - PreARI
	ReconcileMs    float64 `json:"reconcile_ms"`
	PostARI        float64 `json:"post_ari"`
	Clusters       int     `json:"clusters"`
}

// LiveBenchResult is the BENCH_live.json result body.
type LiveBenchResult struct {
	Smoke     bool              `json:"smoke"`
	Seed      uint64            `json:"seed"`
	Points    int               `json:"points"`
	Dim       int               `json:"dim"`
	Eps       float64           `json:"eps"`
	MinPts    int               `json:"minpts"`
	Update    LiveUpdateCell    `json:"update_throughput"`
	Churn     []LiveChurnCell   `json:"read_under_churn"`
	Reconcile LiveReconcileCell `json:"reconcile"`
}

// The live bench's gate bounds.
const (
	liveGateAvailability = 0.99
	liveGatePostARI      = 0.9999
	liveGateDriftSlack   = 1.10 // drift at trigger may overshoot MaxDrift by 10%
)

// runLiveBench benchmarks the live-update layer. c.Seed drives the
// mutation stream (default 5).
func runLiveBench(w io.Writer, c Config) (Report, error) {
	points, seed, smoke := c.Points, c.Seed, c.Smoke
	if points <= 0 {
		points = 20_000
	}
	if seed == 0 {
		seed = 5
	}
	armDur := 600 * time.Millisecond
	if smoke {
		if points > 4000 {
			points = 4000
		}
		armDur = 200 * time.Millisecond
	}
	p := servingParams
	ds, tree, res, err := servingClustering(points)
	if err != nil {
		return Report{}, err
	}
	report := &LiveBenchResult{
		Smoke: smoke, Seed: seed, Points: ds.Len(), Dim: servingDim, Eps: p.Eps, MinPts: p.MinPts,
	}

	// Arm 1: raw update throughput, reconciliation disabled.
	m, err := live.NewModel(ds, res.Labels, tree, p, live.Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		return Report{}, err
	}
	wl := serve.DatasetWorkload(ds)
	ops := points / 4
	if ops > 5000 {
		ops = 5000
	}
	mut := newMutator(seed, wl)
	t0 := time.Now()
	ins, del := 0, 0
	for i := 0; i < ops; i++ {
		if delOp, err := mut.apply(m, i); err != nil {
			return Report{}, err
		} else if delOp {
			del++
		} else {
			ins++
		}
	}
	upSec := time.Since(t0).Seconds()
	st := m.Stats()
	report.Update = LiveUpdateCell{
		Ops: ops, Inserts: ins, Deletes: del, Seconds: upSec,
		UpdatesPerSec: float64(ops) / upSec,
		FinalEpoch:    st.Epoch, Promotions: st.Promotions, Demotions: st.Demotions,
	}
	fmt.Fprintf(w, "update throughput: %d ops (%d ins / %d del) in %.2fs = %.0f updates/s, epoch %d\n",
		ops, ins, del, upSec, report.Update.UpdatesPerSec, st.Epoch)

	// Arm 2: read tail under churn vs the no-write baseline.
	churnArms := []struct {
		name      string
		writeRate float64
	}{{"read-only-baseline", 0}, {"churn", 2000}}
	if smoke {
		churnArms[1].writeRate = 500
	}
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "arm\twrite rate\tread qps\tavail\tp50 µs\tp99 µs\twrites\tupd/s")
	for _, arm := range churnArms {
		lm, err := live.NewModel(kdBenchDataset(points, servingDim), slices.Clone(res.Labels), nil, p,
			live.Options{MaxOverlay: -1, MaxDrift: -1})
		if err != nil {
			return Report{}, err
		}
		srv := live.NewServer(lm, serve.Options{Workers: 4, BatchCap: 16, MaxQueueDelay: -1})
		rep := live.RunMixedLoad(srv, wl, live.MixedOptions{
			Clients: 8, Duration: armDur, RequestTimeout: 250 * time.Millisecond,
			WriteRate: arm.writeRate, Seed: seed,
		})
		sst := srv.Stats()
		srv.Close()
		cell := LiveChurnCell{
			Name: arm.name, WriteRate: arm.writeRate,
			ReadQPS:      rep.Read.AchievedQPS,
			Availability: rep.Read.Availability,
			P50us:        usQ(sst.LatencyP50), P99us: usQ(sst.LatencyP99),
			Writes: rep.Writes, WriteErrors: rep.WriteErrors,
			WriteP99us: usQ(rep.WriteP99), UpdatesPerSec: rep.UpdatesPerSec,
		}
		report.Churn = append(report.Churn, cell)
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.4f\t%.0f\t%.0f\t%d\t%.0f\n",
			cell.Name, cell.WriteRate, cell.ReadQPS, cell.Availability,
			cell.P50us, cell.P99us, cell.Writes, cell.UpdatesPerSec)
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}

	// Arm 3: staleness at the reconcile threshold. Thresholds are
	// disabled so the auto-trigger cannot fire mid-measurement: we drive
	// drift up to exactly the bound, measure staleness, then force the
	// reconcile the threshold would have run.
	const maxDrift = 0.10
	rm, err := live.NewModel(kdBenchDataset(points, servingDim), slices.Clone(res.Labels), nil, p,
		live.Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		return Report{}, err
	}
	rmut := newMutator(seed^0xabcdef, wl)
	muts := 0
	for rm.Stats().Drift < maxDrift {
		if _, err := rmut.apply(rm, muts); err != nil {
			return Report{}, err
		}
		muts++
		if muts > 2*points {
			return Report{}, fmt.Errorf("livebench: drift bound never reached after %d mutations", muts)
		}
	}
	// Measure staleness just before forcing the reconcile.
	preARI, err := liveARI(rm, p)
	if err != nil {
		return Report{}, err
	}
	rst, err := rm.ReconcileNow()
	if err != nil {
		return Report{}, err
	}
	postARI, err := liveARI(rm, p)
	if err != nil {
		return Report{}, err
	}
	report.Reconcile = LiveReconcileCell{
		Mutations:      muts,
		DriftAtTrigger: rst.Drift,
		PreARI:         preARI,
		Staleness:      1 - preARI,
		ReconcileMs:    float64(rst.Duration.Nanoseconds()) / 1e6,
		PostARI:        postARI,
		Clusters:       rst.Clusters,
	}
	fmt.Fprintf(w, "reconcile: %d mutations, drift %.3f, pre-ARI %.4f (staleness %.4f), rebuild %.1f ms, post-ARI %.6f\n",
		muts, rst.Drift, preARI, 1-preARI, report.Reconcile.ReconcileMs, postARI)

	rep := Report{
		Method: "update arm: direct Model mutations, thresholds disabled; churn arms: closed-loop readers " +
			"vs the same plus a paced write stream (RunMixedLoad); reconcile arm: mutate to just under the " +
			"drift threshold, measure ARI vs from-scratch DBSCAN before and after ReconcileNow",
		Result: report,
	}
	for _, arm := range report.Churn {
		rep.gate("availability-"+arm.Name, arm.Availability >= liveGateAvailability,
			"read availability %.4f (want >= %.2f)", arm.Availability, liveGateAvailability)
	}
	rep.gate("post-reconcile-ari", postARI >= liveGatePostARI,
		"post-reconcile ARI %.6f (want >= %.4f)", postARI, liveGatePostARI)
	rep.gate("drift-bounded", rst.Drift <= maxDrift*liveGateDriftSlack || rst.Drift <= 0,
		"drift at reconcile %.4f (bound %.4f)", rst.Drift, maxDrift*liveGateDriftSlack)
	return rep, nil
}

// mutator is the deterministic insert/delete stream shared by the
// bench arms: 70% jittered inserts sampled from the workload, 30%
// deletes of previously inserted ids.
type mutator struct {
	state  uint64 // advanced by rng.SplitMix64
	wl     serve.Workload
	ids    []int64
	nextID int64
	pt     []float64
}

func newMutator(seed uint64, wl serve.Workload) *mutator {
	return &mutator{state: seed, wl: wl, nextID: 1 << 40, pt: make([]float64, wl.Dim)}
}

func (mu *mutator) float64() float64 { return float64(rng.SplitMix64(&mu.state)>>11) / (1 << 53) }
func (mu *mutator) intn(n int) int   { return int(rng.SplitMix64(&mu.state) % uint64(n)) }

// apply performs one mutation on m and reports whether it was a delete.
func (mu *mutator) apply(m *live.Model, _ int) (bool, error) {
	if len(mu.ids) > 0 && mu.float64() < 0.3 {
		i := mu.intn(len(mu.ids))
		id := mu.ids[i]
		mu.ids[i] = mu.ids[len(mu.ids)-1]
		mu.ids = mu.ids[:len(mu.ids)-1]
		return true, m.Delete(id)
	}
	q := mu.wl.At(mu.intn(mu.wl.N()))
	for d := range mu.pt {
		mu.pt[d] = q[d] + (mu.float64()*2-1)*2
	}
	id := mu.nextID
	mu.nextID++
	mu.ids = append(mu.ids, id)
	return false, m.Insert(id, mu.pt)
}

// liveARI compares the live labels to a from-scratch DBSCAN run on the
// current survivors.
func liveARI(m *live.Model, p dbscan.Params) (float64, error) {
	g := m.Pin()
	defer g.Close()
	ds, liveLabels := g.Survivors()
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		return 0, err
	}
	return eval.AdjustedRandIndex(liveLabels, res.Labels)
}
