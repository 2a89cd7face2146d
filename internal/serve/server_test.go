package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
)

// stressModels builds two snapshots over the same dataset with
// different parameters, so hot-swapping between them changes answers
// in a way the test can verify per generation.
func stressModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	ds := clusteredDS(5, 3000, 2, 6, 5)
	a, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	b, _ := mustFreeze(t, ds, dbscan.Params{Eps: 3, MinPts: 10})
	return a, b
}

// TestServerStressHotSwap is the acceptance stress test: ≥ 8 workers,
// sustained concurrent load, hot-swaps mid-load, and every response
// checked against the immutable snapshot its generation names. Run
// under -race this also exercises the admission queue, the batched
// worker path and the atomic swap for data races.
func TestServerStressHotSwap(t *testing.T) {
	mA, mB := stressModels(t)
	// Generations alternate deterministically: odd ⇒ mA, even ⇒ mB
	// (generation 1 is the initial model).
	byGen := func(gen uint64) *Model {
		if gen%2 == 1 {
			return mA
		}
		return mB
	}
	srv := NewServer(mA, Options{Workers: 8, BatchCap: 16, QueueCap: 4096, MaxQueueDelay: -1})
	defer srv.Close()

	w := DatasetWorkload(mA.ds)
	const clients = 24
	var wg sync.WaitGroup
	var served atomic.Uint64
	stop := make(chan struct{})
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += clients {
				select {
				case <-stop:
					return
				default:
				}
				q := w.At(i % w.N())
				a, err := srv.Assign(context.Background(), q)
				if err != nil {
					errc <- err
					return
				}
				served.Add(1)
				if want := byGen(a.Generation).Assign(q); a.Cluster != want.Cluster || a.Core != want.Core {
					errc <- errors.New("response disagrees with the snapshot its generation names")
					return
				}
			}
		}(g)
	}
	// Swap back and forth mid-load.
	lastGen := uint64(1)
	for swap := 0; swap < 6; swap++ {
		time.Sleep(30 * time.Millisecond)
		next := mB
		if lastGen%2 == 0 {
			next = mA
		}
		gen, err := srv.Swap(next)
		if err != nil {
			t.Fatal(err)
		}
		if gen != lastGen+1 {
			t.Fatalf("swap %d: generation %d, want %d", swap, gen, lastGen+1)
		}
		lastGen = gen
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if served.Load() == 0 {
		t.Fatal("no queries served")
	}
	// A worker counts a query completed just after delivering it; Close
	// waits for the workers, so the counters have settled.
	srv.Close()
	st := srv.Stats()
	if st.Completed != served.Load() {
		t.Fatalf("stats completed %d, clients counted %d", st.Completed, served.Load())
	}
	if st.Generation != lastGen {
		t.Fatalf("stats generation %d, want %d", st.Generation, lastGen)
	}
	if st.Batches == 0 || st.MeanBatch < 1 {
		t.Fatalf("implausible batching stats: %+v", st)
	}
	var dist uint64
	for _, c := range st.BatchSizeDist {
		dist += c
	}
	if dist != st.Batches {
		t.Fatalf("batch-size distribution sums to %d, want %d batches", dist, st.Batches)
	}
	if st.LatencyP50 > st.LatencyP99 || st.LatencyP99 > st.LatencyP999 || st.LatencyP999 > st.LatencyMax {
		t.Fatalf("non-monotone latency quantiles: %+v", st)
	}
	if st.QPS <= 0 || st.LatencyP50 <= 0 {
		t.Fatalf("empty serving metrics: %+v", st)
	}
}

// TestServerShedsWhenQueueFull pins the backpressure path: with a
// one-slot queue per shard and a burst far larger than QueueCap, some
// queries must be rejected at admission with ErrOverloaded while the
// accepted ones are answered; nothing hangs and the books balance.
// Every batch stalls its worker (chaos StallRate 1), so the queue fills
// however fast the host's workers would otherwise drain it.
func TestServerShedsWhenQueueFull(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{
		Workers: 2, BatchCap: 1, QueueCap: 2, MaxQueueDelay: -1,
		Chaos: &ChaosProfile{Seed: 1, StallRate: 1},
	})
	defer srv.Close()
	w := DatasetWorkload(mA.ds)
	const burst = 512
	var wg sync.WaitGroup
	var ok, shed atomic.Uint64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Assign(context.Background(), w.At(i%w.N()))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("burst of %d against QueueCap 2 shed nothing", burst)
	}
	if ok.Load() == 0 {
		t.Fatal("shedding rejected everything; accepted queries must still be answered")
	}
	srv.Close() // settle the completion counter (see TestServerStressHotSwap)
	st := srv.Stats()
	if st.ShedAtEnq != shed.Load() || st.Completed != ok.Load() {
		t.Fatalf("stats %+v disagree with client counts ok=%d shed=%d", st, ok.Load(), shed.Load())
	}
}

// TestServerDeadlineShedding pins the dequeue-side half of shedding: a
// MaxQueueDelay no worker can meet sheds every admitted query with
// ErrOverloaded, counted separately from admission rejections.
func TestServerDeadlineShedding(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{Workers: 1, BatchCap: 8, MaxQueueDelay: time.Nanosecond})
	defer srv.Close()
	w := DatasetWorkload(mA.ds)
	for i := 0; i < 32; i++ {
		if _, err := srv.Assign(context.Background(), w.At(i)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("query %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if st := srv.Stats(); st.ShedDeadline != 32 || st.Completed != 0 {
		t.Fatalf("want 32 deadline sheds, got %+v", st)
	}
}

// TestServerContextCancellation: a canceled request unblocks the
// caller immediately with the context's error and is counted once the
// worker reaches it; an expired context deadline behaves like a
// per-request deadline.
func TestServerContextCancellation(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{Workers: 1, BatchCap: 4})
	defer srv.Close()
	w := DatasetWorkload(mA.ds)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Assign(ctx, w.At(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The worker records the cancellation when it dequeues the request;
	// issue live queries until the counter shows up.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled request never counted")
		}
		if _, err := srv.Assign(context.Background(), w.At(1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerClose(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{Workers: 4})
	w := DatasetWorkload(mA.ds)
	if _, err := srv.Assign(context.Background(), w.At(0)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Assign(context.Background(), w.At(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestServerRejectsWrongDimension(t *testing.T) {
	mA, mB := stressModels(t)
	srv := NewServer(mA, Options{Workers: 1})
	defer srv.Close()
	if _, err := srv.Assign(context.Background(), []float64{1, 2, 3}); err == nil {
		t.Fatal("3-d query against a 2-d model accepted")
	}
	if _, err := srv.Swap(mB); err != nil {
		t.Fatalf("same-dimension swap refused: %v", err)
	}
	ds10 := clusteredDS(8, 400, 10, 2, 8)
	m10, err := Freeze(ds10, make([]int32, 400), nil, nil, dbscan.Params{Eps: 25, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Swap(m10); err == nil {
		t.Fatal("cross-dimension swap accepted")
	}
}

// TestServerRejectsNonFinite: a query with a NaN or ±Inf coordinate is
// an error naming the coordinate, not an answer of noise, on every
// priority.
func TestServerRejectsNonFinite(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{Workers: 1})
	defer srv.Close()
	for _, tc := range []struct {
		name  string
		q     []float64
		coord int
	}{
		{"nan", []float64{math.NaN(), 0}, 0},
		{"+inf", []float64{1, math.Inf(1)}, 1},
		{"-inf", []float64{math.Inf(-1), 2}, 0},
	} {
		want := fmt.Sprintf("coordinate %d", tc.coord)
		if _, err := srv.Assign(context.Background(), tc.q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Assign error %v, want %q", tc.name, err, want)
		}
		if _, err := srv.AssignPriority(context.Background(), tc.q, PriorityHigh); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: AssignPriority error %v, want %q", tc.name, err, want)
		}
	}
	if st := srv.Stats(); st.Completed != 0 {
		t.Fatalf("rejected queries reached a worker: %d completed", st.Completed)
	}
}

// TestLoadGenerators smoke-tests both loops against a live server and
// checks the reports balance.
func TestLoadGenerators(t *testing.T) {
	mA, _ := stressModels(t)
	srv := NewServer(mA, Options{Workers: 4, BatchCap: 16})
	defer srv.Close()
	w := DatasetWorkload(mA.ds)

	closed := RunLoad(srv, w, LoadOptions{Clients: 8, Duration: 60 * time.Millisecond})
	if closed.Completed == 0 || closed.AchievedQPS <= 0 {
		t.Fatalf("closed loop served nothing: %+v", closed)
	}
	if closed.Issued != closed.Completed+closed.Shed+closed.Canceled+closed.Errored {
		t.Fatalf("closed-loop books don't balance: %+v", closed)
	}

	open := RunLoad(srv, w, LoadOptions{QPS: 2000, Duration: 60 * time.Millisecond})
	if open.Issued == 0 {
		t.Fatalf("open loop issued nothing: %+v", open)
	}
	if open.Issued != open.Completed+open.Shed+open.Canceled+open.Errored {
		t.Fatalf("open-loop books don't balance: %+v", open)
	}
}

// TestHistogram pins the log-linear bucket mapping's round-trip: the
// representative value of a sample's bucket is never above the sample
// and never more than ~6% below it.
func TestHistogram(t *testing.T) {
	for _, ns := range []uint64{0, 1, 15, 16, 17, 100, 1023, 1024, 5_000, 1_000_000, 123_456_789} {
		b := histBucket(ns)
		lo := histValue(b)
		if lo > ns {
			t.Fatalf("bucket lower edge %d above sample %d", lo, ns)
		}
		if ns > 16 && float64(ns-lo)/float64(ns) > 1.0/histSub {
			t.Fatalf("bucket %d edge %d loses >%d%% of sample %d", b, lo, 100/histSub, ns)
		}
		if b2 := histBucket(lo); b2 != b {
			t.Fatalf("edge %d of bucket %d maps to bucket %d", lo, b, b2)
		}
	}
	var h latencyHist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	q := h.quantiles(0.5, 0.99)
	if q[0] < 400*time.Microsecond || q[0] > 510*time.Microsecond {
		t.Fatalf("p50 of 1..1000µs = %v", q[0])
	}
	if q[1] < 900*time.Microsecond || q[1] > 1000*time.Microsecond {
		t.Fatalf("p99 of 1..1000µs = %v", q[1])
	}
}
