package spark

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"sparkdbscan/internal/simtime"
)

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mapEach applies f to every element, built on the one transformation
// the package has.
func mapEach[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return MapPartitionsWithIndex(r, func(_ int, in []T, _ *TaskContext) ([]U, error) {
		out := make([]U, len(in))
		for i, e := range in {
			out[i] = f(e)
		}
		return out, nil
	})
}

func TestParallelizeCollect(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 100} {
		ctx := NewContext(Config{Cores: 4})
		data := intRange(100)
		rdd := Parallelize(ctx, data, parts)
		got, err := rdd.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("parts=%d: collected %d", parts, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("parts=%d: order broken at %d: %d", parts, i, v)
			}
		}
	}
}

func TestPartitionRangeCoversAll(t *testing.T) {
	for n := 0; n < 50; n++ {
		for parts := 1; parts < 12; parts++ {
			covered := 0
			prevHi := 0
			for s := 0; s < parts; s++ {
				lo, hi := partitionRange(n, parts, s)
				if lo != prevHi {
					t.Fatalf("n=%d parts=%d split=%d: gap (lo=%d prev=%d)", n, parts, s, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d parts=%d split=%d: negative range", n, parts, s)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d parts=%d: covered %d, end %d", n, parts, covered, prevHi)
			}
		}
	}
}

func TestMapPartitionsWithIndex(t *testing.T) {
	ctx := NewContext(Config{Cores: 2})
	rdd := Parallelize(ctx, intRange(10), 3)
	tagged, err := MapPartitionsWithIndex(rdd, func(split int, in []int, tc *TaskContext) ([]string, error) {
		out := make([]string, len(in))
		for i, v := range in {
			out[i] = fmt.Sprintf("p%d:%d", split, v)
		}
		return out, nil
	}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if tagged[0] != "p0:0" || tagged[len(tagged)-1] != "p2:9" {
		t.Fatalf("tags wrong: %v", tagged)
	}
}

func TestForeachAccumulator(t *testing.T) {
	ctx := NewContext(Config{Cores: 4})
	rdd := Parallelize(ctx, intRange(1000), 8)
	acc := CounterAccumulator(ctx)
	err := rdd.ForeachPartition(func(_ int, in []int, tc *TaskContext) error {
		for _, v := range in {
			acc.Add(tc, int64(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Value(); got != 499500 {
		t.Fatalf("accumulator = %d, want 499500", got)
	}
}

func TestSliceAccumulatorCollectsAll(t *testing.T) {
	ctx := NewContext(Config{Cores: 4})
	rdd := Parallelize(ctx, intRange(50), 5)
	acc := SliceAccumulator[int](ctx)
	err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
		acc.Add(tc, in)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := acc.Value()
	sort.Ints(got)
	if len(got) != 50 || got[0] != 0 || got[49] != 49 {
		t.Fatalf("accumulated %d values", len(got))
	}
}

func TestAccumulatorExactlyOnceUnderRetries(t *testing.T) {
	// Tasks in partition 1 fail twice before succeeding; the
	// accumulator must still count each partition exactly once.
	var attempts atomic.Int64
	ctx := NewContext(Config{
		Cores: 2,
		FailureInjector: func(stage, partition, attempt int) error {
			if partition == 1 && attempt < 2 {
				attempts.Add(1)
				return errors.New("injected")
			}
			return nil
		},
	})
	rdd := Parallelize(ctx, intRange(40), 4)
	acc := CounterAccumulator(ctx)
	err := rdd.ForeachPartition(func(_ int, in []int, tc *TaskContext) error {
		for range in {
			acc.Add(tc, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Value(); got != 40 {
		t.Fatalf("accumulator = %d, want 40 (retries double-counted?)", got)
	}
	if attempts.Load() != 2 {
		t.Fatalf("injector fired %d times, want 2", attempts.Load())
	}
	rep := ctx.Report()
	var failures int
	for _, st := range rep.Stages {
		failures += st.Failures
	}
	if failures != 2 {
		t.Fatalf("reported %d failures, want 2", failures)
	}
}

func TestTaskFailsAfterMaxRetries(t *testing.T) {
	ctx := NewContext(Config{
		Cores:          1,
		MaxTaskRetries: 3,
		FailureInjector: func(stage, partition, attempt int) error {
			return errors.New("always fails")
		},
	})
	rdd := Parallelize(ctx, intRange(4), 2)
	_, err := rdd.Collect()
	if err == nil {
		t.Fatal("job succeeded despite permanent failure")
	}
}

func TestLineageRecomputation(t *testing.T) {
	// A task that fails *after* materializing its parent forces the
	// retry to recompute the parent partition from lineage: the map
	// function runs again for the retried partition.
	var mapRuns atomic.Int64
	var failedOnce atomic.Bool
	ctx := NewContext(Config{Cores: 1})
	rdd := Parallelize(ctx, intRange(10), 2)
	mapped := mapEach(rdd, func(x int) int {
		mapRuns.Add(1)
		return x + 1
	})
	flaky := MapPartitionsWithIndex(mapped, func(split int, in []int, tc *TaskContext) ([]int, error) {
		if split == 0 && failedOnce.CompareAndSwap(false, true) {
			return nil, errors.New("boom after parent compute")
		}
		return in, nil
	})
	out, err := flaky.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || out[0] != 1 {
		t.Fatalf("bad output %v", out)
	}
	// 10 elements + 5 recomputed for the retried partition.
	if mapRuns.Load() != 15 {
		t.Fatalf("map ran %d times, want 15 (lineage recomputation)", mapRuns.Load())
	}
}

func TestBroadcast(t *testing.T) {
	ctx := NewContext(Config{Cores: 2})
	table := map[int]string{0: "a", 1: "b"}
	bc := NewBroadcast(ctx, table, 1024)
	rdd := Parallelize(ctx, intRange(10), 2)
	out, err := mapEach(rdd, func(x int) string { return bc.Value()[x%2] }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "a" || out[1] != "b" {
		t.Fatalf("broadcast values wrong: %v", out[:2])
	}
	if bc.Reads() == 0 {
		t.Fatal("broadcast never read")
	}
	if bc.SizeBytes() != 1024 {
		t.Fatalf("SizeBytes = %d", bc.SizeBytes())
	}
	// The broadcast charges driver serialization time in virtual mode.
	if rep := ctx.Report(); rep.DriverWork.SerBytes < 1024 {
		t.Fatalf("driver not charged for broadcast: %+v", rep.DriverWork)
	}
}

func TestStoppedContextRejectsJobs(t *testing.T) {
	ctx := NewContext(Config{})
	rdd := Parallelize(ctx, intRange(5), 1)
	ctx.Stop()
	if _, err := rdd.Collect(); err == nil {
		t.Fatal("stopped context ran a job")
	}
	if err := ctx.RunInDriver("x", func(w *simtime.Work) error { return nil }); err == nil {
		t.Fatal("stopped context ran driver code")
	}
}

func TestVirtualTimeScalesWithCores(t *testing.T) {
	// The same metered work scheduled on more cores must take less
	// simulated time.
	elapsed := func(cores int) float64 {
		ctx := NewContext(Config{Cores: cores, Seed: 7})
		rdd := Parallelize(ctx, intRange(64), 64)
		err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
			tc.Charge(simtime.Work{DistComps: 1_000_000}) // 2s of simulated work per task
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Report().ExecutorSeconds
	}
	t1, t8, t64 := elapsed(1), elapsed(8), elapsed(64)
	if !(t1 > t8 && t8 > t64) {
		t.Fatalf("virtual time not decreasing: %g, %g, %g", t1, t8, t64)
	}
	if speedup := t1 / t8; speedup < 4 || speedup > 8.01 {
		t.Fatalf("8-core speedup %g outside (4, 8]", speedup)
	}
}

func TestVirtualTimeDeterministic(t *testing.T) {
	run := func() float64 {
		ctx := NewContext(Config{Cores: 4, Seed: 99})
		rdd := Parallelize(ctx, intRange(16), 16)
		_ = rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
			tc.Charge(simtime.Work{Elems: int64(1000 * (split + 1))})
			return nil
		})
		return ctx.Report().ExecutorSeconds
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual time not deterministic: %g vs %g", a, b)
	}
}

func TestRealModeRuns(t *testing.T) {
	ctx := NewContext(Config{Cores: 2, Mode: Real})
	rdd := Parallelize(ctx, intRange(100), 4)
	vals, err := mapEach(rdd, func(x int) int { return x }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	if rep := ctx.Report(); rep.ExecutorSeconds <= 0 {
		t.Fatalf("real mode did not time stages: %+v", rep)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Cores != 1 || cfg.CoresPerExecutor != 8 || cfg.Model == nil ||
		cfg.MaxTaskRetries != 4 || cfg.HostParallelism < 1 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if got := (Config{Cores: 17, CoresPerExecutor: 8}).NumExecutors(); got != 3 {
		t.Fatalf("NumExecutors = %d, want 3", got)
	}
}
