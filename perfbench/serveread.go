package main

import (
	"context"
	"time"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/serve"
)

const (
	bankSize    = 20_000
	openSenders = 8
	// openRate is the open-loop arrival rate, per second, at which the
	// traced run reads the open-loop p99 and the generator's lateness and
	// floor.
	openRate = 20_000
	// sampleEvery is how often a served answer is kept and compared with
	// Model.Assign after the job.
	sampleEvery = 64
	// spanEvery is how often the traced jobs record a request span.
	spanEvery = 16
)

// answer is one served answer kept for checking.
type answer struct {
	q int
	a serve.Assignment
}

// serveRead measures the read path: a frozen serve.Model behind a
// serve.Server, answering the whole query bank from a closed loop of
// nproc clients. The traced run adds an open loop at a fixed rate.
func serveRead(r *run) error {
	var st *clustered
	var model *serve.Model
	err := r.setUp(func(s spanRef) error {
		var err error
		if st, err = newClustered(r, s); err != nil {
			return err
		}
		r.rec.do("serve.freeze", s, func(spanRef) {
			model, err = serve.Freeze(st.ds, st.ref.Labels, st.ref.Core, st.tree, mixtureParams)
		})
		return err
	})
	if err != nil {
		return err
	}
	// An unmeasured warm-up, so heap growth and first-touch page faults
	// after set-up land on no job.
	bankJob(r, nil, st.bank, model)
	if r.trace {
		return serveReadTraced(r, st, model)
	}

	// Only the last job's latencies are kept, for the log: keeping every
	// job's would grow the heap, and with it peak_rss_mb, by the run's
	// length.
	var jobS []float64
	var last latencies
	err = r.repeat(func() error {
		res, _ := bankJob(r, nil, st.bank, model)
		jobS = append(jobS, res.elapsed.Seconds())
		last = res.lat
		return nil
	})
	if err != nil {
		return err
	}
	r.put("job_s", "s", median(jobS))
	logf("serve-read: %d jobs of %d reads from %d clients, %.4fs each; last job's reads %s",
		len(jobS), st.bank.Len(), r.procs, median(jobS), last.summary())
	return nil
}

// bankJob answers every query of the bank once through a fresh server
// over model, from nproc closed-loop clients that each take an equal
// share, and compares every sampleEvery-th answer with model.Assign. It
// returns what the clients saw plus the server's stats. With rec
// non-nil every spanEvery-th request gets a span.
func bankJob(r *run, rec *recorder, bank *geom.Dataset, model *serve.Model) (loopResult, serve.Stats) {
	srv := serve.NewServer(model, serverOptions(r.procs))
	defer srv.Close()
	ctx := context.Background()
	per := bank.Len() / r.procs
	samples := make([][]answer, r.procs)
	res := closedLoop(r.procs, time.Hour, per, func(c, i int) bool {
		q := c*per + i
		var a serve.Assignment
		var err error
		if rec != nil && i%spanEvery == 0 {
			rec.do("serve.assign", spanRef{}, func(spanRef) { a, err = srv.Assign(ctx, bank.At(int32(q))) })
		} else {
			a, err = srv.Assign(ctx, bank.At(int32(q)))
		}
		if err != nil {
			return false
		}
		if i%sampleEvery == 0 {
			samples[c] = append(samples[c], answer{q, a})
		}
		return true
	})
	r.count(len(res.lat), res.failed)
	checkAnswers(r, bank, model, samples...)
	return res, srv.Stats()
}

// openArm sends rate requests per second for d, to a fresh server over
// model (viaServer) or to model.Assign directly (the generator's floor),
// and compares sampled answers with model.Assign.
func openArm(r *run, bank *geom.Dataset, model *serve.Model, rate float64, d time.Duration, viaServer bool) loopResult {
	n := int(rate * d.Seconds())
	got := make([]serve.Assignment, n)
	call := func(i int) bool {
		got[i] = model.Assign(bank.At(int32(i % bank.Len())))
		return true
	}
	if viaServer {
		srv := serve.NewServer(model, serverOptions(r.procs))
		defer srv.Close()
		ctx := context.Background()
		call = func(i int) bool {
			a, err := srv.Assign(ctx, bank.At(int32(i%bank.Len())))
			got[i] = a
			return err == nil
		}
	}
	res := openLoop(rate, n, openSenders, call)
	r.count(n, res.failed)
	var samples []answer
	for i := 0; i < n; i += sampleEvery {
		if res.lat[i] != failedLatency {
			samples = append(samples, answer{i % bank.Len(), got[i]})
		}
	}
	checkAnswers(r, bank, model, samples)
	return res
}

// serverOptions configures every server the benchmark starts: procs
// workers and no queue-delay budget. Neither load generator can
// overload it (at most nproc or openSenders requests are in flight), so
// a budget would defend nothing; without one a stall of the shared host
// shows as latency instead of as shed requests.
func serverOptions(procs int) serve.Options {
	return serve.Options{Workers: procs, MaxQueueDelay: -1}
}

// checkAnswers compares served answers with model.Assign on the same
// query; each mismatch is a failed operation.
func checkAnswers(r *run, bank *geom.Dataset, model *serve.Model, samples ...[]answer) {
	for _, ss := range samples {
		for _, s := range ss {
			want := model.Assign(bank.At(int32(s.q)))
			if s.a.Cluster != want.Cluster || s.a.Core != want.Core {
				r.fail("query %d served %+v, Model.Assign says %+v", s.q, s.a, want)
			}
		}
	}
}

// serveReadTraced is the per-layer run of serve-read.
func serveReadTraced(r *run, st *clustered, model *serve.Model) error {
	// Alternate untraced and traced jobs, so drift in the host's speed
	// falls on both sides of the tracing overhead.
	var plainS, tracedS, batch []float64
	var tracedLat latencies
	var shed uint64
	until := time.Now().Add(r.part(0.5, time.Second))
	for time.Now().Before(until) {
		plain, _ := bankJob(r, nil, st.bank, model)
		traced, stats := bankJob(r, r.rec, st.bank, model)
		plainS = append(plainS, plain.elapsed.Seconds())
		tracedS = append(tracedS, traced.elapsed.Seconds())
		tracedLat = append(tracedLat, traced.lat...)
		batch = append(batch, stats.MeanBatch)
		shed += stats.Shed
	}
	r.put("trace.overhead_pct", "%", 100*(median(tracedS)-median(plainS))/median(plainS))
	r.put("serve.read_qps", "1/s", float64(st.bank.Len())/median(tracedS))
	r.put("serve.mean_batch", "count", median(batch))
	r.put("serve.shed", "count", float64(shed))

	// Direct probes over the whole query bank: one kd-tree traversal per
	// query, and the model's batched assignment.
	var buf []int32
	queryNS := perQueryNS(st.bank.Len(), func() {
		for i := 0; i < st.bank.Len(); i++ {
			buf = st.tree.Radius(st.bank.At(int32(i)), mixtureParams.Eps, buf[:0], nil)
		}
	})
	out := make([]serve.Assignment, 32)
	assignNS := perQueryNS(st.bank.Len(), func() {
		for lo := 0; lo < st.bank.Len(); lo += len(out) {
			hi := min(lo+len(out), st.bank.Len())
			model.AssignBatch(st.bank.Coords[lo*st.bank.Dim:hi*st.bank.Dim], out[:hi-lo])
		}
	})
	r.put("kdtree.query_ns", "ns", queryNS)
	r.put("serve.assign_ns", "ns", assignNS)
	p50, err := tracedLat.quantileUS(50)
	if err != nil {
		return err
	}
	r.put("serve.read_p50_us", "us", p50)
	r.put("serve.overhead_p50_us", "us", p50-assignNS/1e3)
	r.putQuantile("serve.read_p99_us", tracedLat, 99)

	open := openArm(r, st.bank, model, openRate, r.part(0.15, 200*time.Millisecond), true)
	r.putQuantile("serve.open_p99_us", open.lat, 99)
	r.putQuantile("gen.late_p99_us", open.late, 99)
	floor := openArm(r, st.bank, model, openRate, r.part(0.15, 200*time.Millisecond), false)
	r.putQuantile("gen.floor_p99_us", floor.lat, 99)
	logf("serve-read: open loop at %.0f/s: %s, late %s; floor %s", float64(openRate), open.lat.summary(), open.late.summary(), floor.lat.summary())

	r.layerMedian("serve.freeze_s", "serve.freeze")
	r.layerMedian("kdtree.build_s", "kdtree.build")
	r.layerMedian("quest.generate_s", "quest.generate")
	r.layerMedian("dbscan.run_s", "dbscan.run")
	return nil
}

// perQueryNS runs pass (n queries) five times and returns the median
// time per query in nanoseconds.
func perQueryNS(n int, pass func()) float64 {
	var per []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		pass()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}
