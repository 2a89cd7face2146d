package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/eval"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/live"
)

// Churn sizing: each job applies burstOps mutations directly to the
// model, then serves reads for a fortieth of the run while writes arrive
// at writeRate per second, then reconciles.
const (
	burstOps   = 8000
	writeRate  = 1000
	minPostARI = 0.9999
	// guardQueries is how many bank queries the traced run assigns
	// through a pinned epoch (each scans the whole overlay).
	guardQueries = 1000
)

// liveOptions turn automatic reconciles off, so the job's one forced
// reconcile is the only one.
var liveOptions = live.Options{MaxOverlay: -1, MaxDrift: -1}

// liveChurn measures the mutable model: a write burst, reads beside a
// paced write stream, and a forced reconcile, repeated while the run
// lasts. Every job starts from the set-up's base and replays the same
// stream, so every job does the same work. The run ends with the
// reconciled labels checked against a from-scratch DBSCAN of the
// survivors.
func liveChurn(r *run) error {
	var st *clustered
	var model *live.Model
	err := r.setUp(func(s spanRef) error {
		var err error
		if st, err = newClustered(r, s); err != nil {
			return err
		}
		r.rec.do("live.new_model", s, func(spanRef) {
			model, err = live.NewModel(st.ds, st.ref.Labels, st.tree, mixtureParams, liveOptions)
		})
		return err
	})
	if err != nil {
		return err
	}

	// A job is the write burst plus the reconcile; the paced-read phase
	// between them lasts a fixed time, so it is not part of the job.
	var jobS, rates, reconciles, internal, overheads []float64
	var writes, inserts, deletes, reads latencies
	var pinNS, guardNS []float64
	jobs := 0
	err = r.repeat(func() error {
		if jobs++; jobs > 1 {
			// The base is read-only to a model, so models can share it.
			var err error
			r.rec.do("live.new_model", spanRef{}, func(spanRef) {
				model, err = live.NewModel(st.ds, st.ref.Labels, st.tree, mixtureParams, liveOptions)
			})
			if err != nil {
				return err
			}
			runtime.GC()
		}
		stream := newChurn(derive(r.seed, streamChurn), st.ds.Len(), st.bank)
		b := burst(r, r.rec, model, stream)
		rates = append(rates, b.rate)
		writes = append(writes, b.ins...)
		writes = append(writes, b.del...)
		inserts = append(inserts, b.ins...)
		deletes = append(deletes, b.del...)

		if r.trace {
			overheads = append(overheads, b.overheadPct)
			// Read-path probes with the burst's overlay in place.
			pinNS = append(pinNS, perQueryNS(100_000, func() {
				for i := 0; i < 100_000; i++ {
					model.Pin().Close()
				}
			}))
			g := model.Pin()
			guardNS = append(guardNS, perQueryNS(guardQueries, func() {
				for i := 0; i < guardQueries; i++ {
					g.Assign(st.bank.At(int32(i)))
				}
			}))
			g.Close()
		}

		reads = append(reads, churnReads(r, model, st, stream, r.part(0.025, 250*time.Millisecond))...)

		var rs live.ReconcileStats
		var err error
		runtime.GC()
		d := r.rec.do("live.reconcile", spanRef{}, func(spanRef) { rs, err = model.ReconcileNow() })
		if err != nil {
			return fmt.Errorf("reconcile: %w", err)
		}
		reconciles = append(reconciles, d.Seconds())
		internal = append(internal, rs.Duration.Seconds())
		jobS = append(jobS, b.elapsed.Seconds()+d.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	runtime.GC()
	ari, err := survivorsARI(model)
	if err != nil {
		return err
	}
	r.check(ari >= minPostARI, "ARI after the last reconcile %.6f < %.4f", ari, minPostARI)
	logf("live-churn: %d jobs, %.3fs each; %.0f updates/s, writes %s, churn reads %s, reconcile %.3fs; jobs %s",
		len(jobS), median(jobS), median(rates), writes.summary(), reads.summary(), median(reconciles), fmtSeconds(jobS))

	if !r.trace {
		r.put("job_s", "s", median(jobS))
		return nil
	}
	r.put("live.update_per_s", "1/s", median(rates))
	r.putQuantile("live.write_p99_us", writes, 99)
	r.putQuantile("live.churn_read_p99_us", reads, 99)
	r.put("trace.overhead_pct", "%", median(overheads))
	r.putQuantile("live.insert_p50_us", inserts, 50)
	r.putQuantile("live.insert_p99_us", inserts, 99)
	r.putQuantile("live.delete_p50_us", deletes, 50)
	r.putQuantile("live.delete_p99_us", deletes, 99)
	ms := model.Stats()
	r.put("live.promotions", "count", float64(ms.Promotions))
	r.put("live.demotions", "count", float64(ms.Demotions))
	r.put("live.epochs", "count", float64(ms.Epoch))
	r.put("live.pin_ns", "ns", median(pinNS))
	r.put("live.guard_assign_ns", "ns", median(guardNS))
	r.put("live.reconcile_s", "s", median(internal))
	r.layerMedian("live.new_model_s", "live.new_model")
	r.layerMedian("dbscan.run_s", "dbscan.run")
	r.layerMedian("kdtree.build_s", "kdtree.build")
	r.layerMedian("quest.generate_s", "quest.generate")
	return nil
}

// burstResult is one closed-loop write burst.
type burstResult struct {
	elapsed  time.Duration
	rate     float64
	ins, del latencies
	// overheadPct compares the mean latency of the traced operations
	// with that of the untraced ones, in percent (traced runs only).
	overheadPct float64
}

// burst applies burstOps mutations of the stream directly to the
// model, one after another, timing each. With rec non-nil every other
// operation gets a span, so traced and untraced operations meet the
// same growing overlay and their mean latencies give the tracing
// overhead.
func burst(r *run, rec *recorder, model *live.Model, stream *churn) burstResult {
	var res burstResult
	var sums [2]time.Duration
	failed := 0
	start := time.Now()
	for i := 0; i < burstOps; i++ {
		op := stream.next()
		opRec := rec
		if i%2 == 0 {
			opRec = nil
		}
		var err error
		var d time.Duration
		if op.del {
			d = opRec.do("live.delete", spanRef{}, func(spanRef) { err = model.Delete(op.id) })
			res.del = append(res.del, d)
		} else {
			d = opRec.do("live.insert", spanRef{}, func(spanRef) { err = model.Insert(op.id, op.pt) })
			res.ins = append(res.ins, d)
		}
		sums[i%2] += d
		if err != nil {
			failed++
			logf("FAILED: write %+v: %v", op, err)
		}
	}
	res.elapsed = time.Since(start)
	res.rate = burstOps / res.elapsed.Seconds()
	res.overheadPct = 100 * (sums[1] - sums[0]).Seconds() / sums[0].Seconds()
	r.count(burstOps, failed)
	return res
}

// churnReads serves reads through a live.Server from nproc closed-loop
// clients for d while one writer applies the stream at writeRate per
// second, paced without spinning. It returns the read latencies; every
// failed read or write is counted.
func churnReads(r *run, model *live.Model, st *clustered, stream *churn, d time.Duration) latencies {
	srv := live.NewServer(model, serverOptions(r.procs))
	defer srv.Close()
	var wg sync.WaitGroup
	var writeFails, writesDone int
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		n := int(writeRate * d.Seconds())
		for i := 0; i < n; i++ {
			sleepUntil(start.Add(time.Duration(i) * time.Second / writeRate))
			op := stream.next()
			var err error
			if op.del {
				err = srv.Delete(op.id)
			} else {
				err = srv.Insert(op.id, op.pt)
			}
			writesDone++
			if err != nil {
				writeFails++
				logf("FAILED: paced write %+v: %v", op, err)
			}
		}
	}()
	ctx := context.Background()
	res := closedLoop(r.procs, d, 0, func(c, i int) bool {
		q := (c*st.bank.Len()/r.procs + i) % st.bank.Len()
		_, err := srv.Assign(ctx, st.bank.At(int32(q)))
		if err != nil {
			logf("FAILED: read of query %d beside paced writes: %v", q, err)
		}
		return err == nil
	})
	wg.Wait()
	r.count(len(res.lat)+writesDone, res.failed+writeFails)
	return res.lat
}

// survivorsARI compares the model's labels with a from-scratch DBSCAN of
// its surviving points.
func survivorsARI(model *live.Model) (float64, error) {
	g := model.Pin()
	ds, labels := g.Survivors()
	g.Close()
	res, err := dbscan.Run(ds, kdtree.Build(ds), mixtureParams)
	if err != nil {
		return 0, fmt.Errorf("reference DBSCAN of survivors: %w", err)
	}
	return eval.AdjustedRandIndex(labels, res.Labels)
}
