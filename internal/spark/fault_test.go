package spark

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparkdbscan/internal/simtime"
)

// countStage runs one chargeable stage and returns the report.
func countStage(t *testing.T, ctx *Context) Report {
	t.Helper()
	rdd := Parallelize(ctx, intRange(64), 8)
	err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
		tc.Charge(simtime.Work{DistComps: 500_000})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Report()
}

func TestFailedAttemptsCostVirtualTime(t *testing.T) {
	// Same work, same seed; the faulty run fails attempt 0 of every
	// task. Each failed attempt occupies its core to the failure point
	// and the retry waits out the backoff, so executor time must
	// strictly exceed the clean run — the bug this layer fixes is that
	// the two used to be equal.
	clean := countStage(t, NewContext(Config{Cores: 4, Seed: 11}))
	faulty := countStage(t, NewContext(Config{
		Cores: 4, Seed: 11,
		FailureInjector: func(stage, partition, attempt int) error {
			if attempt == 0 {
				return errors.New("injected")
			}
			return nil
		},
	}))
	if faulty.ExecutorSeconds <= clean.ExecutorSeconds {
		t.Fatalf("faulty run not slower: clean %g, faulty %g",
			clean.ExecutorSeconds, faulty.ExecutorSeconds)
	}
	st := faulty.Stages[0]
	if st.Failures != 8 {
		t.Fatalf("Failures = %d, want 8 (one per task)", st.Failures)
	}
	if st.RetrySeconds <= 0 || st.BackoffSeconds <= 0 {
		t.Fatalf("retry/backoff not charged: %+v", st)
	}
	if clean.Stages[0].Failures != 0 || clean.Stages[0].RetrySeconds != 0 {
		t.Fatalf("clean run reports failures: %+v", clean.Stages[0])
	}
}

func TestFailedComputeWorkKeptInLedger(t *testing.T) {
	// An attempt that charges work and then errors must surface that
	// work in the stage's FailedWork ledger instead of dropping it.
	ctx := NewContext(Config{Cores: 2})
	rdd := Parallelize(ctx, intRange(8), 2)
	out := MapPartitionsWithIndex(rdd, func(split int, in []int, tc *TaskContext) ([]int, error) {
		tc.Charge(simtime.Work{Elems: 7777})
		if split == 1 && tc.Attempt == 0 {
			return nil, errors.New("compute blew up")
		}
		return in, nil
	})
	if _, err := out.Collect(); err != nil {
		t.Fatal(err)
	}
	rep := ctx.Report()
	st := rep.Stages[0]
	if st.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", st.Failures)
	}
	if st.FailedWork.Elems != 7777 {
		t.Fatalf("FailedWork.Elems = %d, want 7777 (failed attempt's metered work dropped)",
			st.FailedWork.Elems)
	}
	if st.RetrySeconds <= 0 {
		t.Fatalf("failed attempt occupied no core time: %+v", st)
	}
}

func TestStopAbortsRunningStage(t *testing.T) {
	// Stop() fired from inside a task must abort the stage between
	// task launches, not let it run to completion.
	ctx := NewContext(Config{Cores: 1, HostParallelism: 1})
	rdd := Parallelize(ctx, intRange(32), 16)
	var launched atomic.Int64
	err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
		launched.Add(1)
		if split == 2 {
			ctx.Stop()
		}
		return nil
	})
	if err == nil {
		t.Fatal("stage survived a Stop()")
	}
	if !strings.Contains(err.Error(), "context stopped") {
		t.Fatalf("error = %v, want a context-stopped error", err)
	}
	if n := launched.Load(); n >= 16 {
		t.Fatalf("all %d tasks launched despite Stop()", n)
	}
}

func TestSetSizeFuncAfterMaterializePanics(t *testing.T) {
	ctx := NewContext(Config{})
	rdd := Parallelize(ctx, intRange(8), 2)
	if _, err := rdd.Collect(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSizeFunc after materialization did not panic")
		}
	}()
	rdd.SetSizeFunc(func(int) int64 { return 99 })
}

func TestCachedRDDConcurrentJobsNoRace(t *testing.T) {
	// One RDD reused by concurrent jobs: every task reads the size
	// estimator and marks the RDD started. Run under -race (the CI
	// fault-matrix job does), this guards the atomic sizeFn.
	ctx := NewContext(Config{Cores: 4})
	base := Parallelize(ctx, intRange(1000), 8).
		SetSizeFunc(func(int) int64 { return 8 })
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if j%2 == 0 {
				_, errs[j] = base.Collect()
			} else {
				errs[j] = base.ForeachPartition(func(int, []int, *TaskContext) error { return nil })
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultProfileDeterministic(t *testing.T) {
	run := func(seed uint64) Report {
		return countStage(t, NewContext(Config{
			Cores: 8, CoresPerExecutor: 2, Seed: 5,
			Faults: &FaultProfile{
				Seed:              seed,
				TaskFailRate:      0.4,
				SlowRate:          0.2,
				ExecutorCrashRate: 0.3,
			},
		}))
	}
	a, b := run(13), run(13)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed, different reports:\n%+v\n%+v", a, b)
	}
	c := run(14)
	if a.ExecutorSeconds == c.ExecutorSeconds && reflect.DeepEqual(a.Stages, c.Stages) {
		t.Fatalf("different fault seeds produced identical schedules")
	}
}

func TestProfileFailuresPreserveResultsAndAccumulators(t *testing.T) {
	// Heavy injected faults may move time but never results — and
	// accumulators still count each partition exactly once.
	mk := func(p *FaultProfile) ([]int, int64, Report) {
		ctx := NewContext(Config{Cores: 4, CoresPerExecutor: 2, Faults: p})
		rdd := Parallelize(ctx, intRange(100), 10)
		acc := CounterAccumulator(ctx)
		doubled := mapEach(rdd, func(x int) int { return 2 * x })
		if err := doubled.ForeachPartition(func(_ int, in []int, tc *TaskContext) error {
			for range in {
				acc.Add(tc, 1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		out, err := doubled.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return out, acc.Value(), ctx.Report()
	}
	cleanOut, cleanAcc, _ := mk(nil)
	for _, seed := range []uint64{1, 2, 3} {
		out, acc, rep := mk(&FaultProfile{Seed: seed, TaskFailRate: 0.5, SlowRate: 0.3})
		if !reflect.DeepEqual(out, cleanOut) {
			t.Fatalf("seed %d: faults changed results", seed)
		}
		if acc != cleanAcc || acc != 100 {
			t.Fatalf("seed %d: accumulator = %d, want 100", seed, acc)
		}
		if rep.FailedAttempts() == 0 {
			t.Fatalf("seed %d: 50%% fail rate injected nothing", seed)
		}
	}
}

func TestExecutorCrashRestartsAndRepaysWarmup(t *testing.T) {
	// Every executor crashes in every stage (rate 1). The restart must
	// be counted and the broadcast warm-up re-paid, so a run with a
	// large broadcast loses strictly more time to the crash than one
	// without.
	mk := func(bcastBytes int64, crash float64) Report {
		ctx := NewContext(Config{
			Cores: 4, CoresPerExecutor: 2, Seed: 9,
			Faults: &FaultProfile{Seed: 17, ExecutorCrashRate: crash},
		})
		if bcastBytes > 0 {
			NewBroadcast(ctx, "payload", bcastBytes)
		}
		return countStage(t, ctx)
	}
	crashed := mk(0, 1)
	if crashed.ExecutorRestarts == 0 {
		t.Fatalf("crash rate 1 produced no restarts: %+v", crashed)
	}
	clean := mk(0, 0)
	if crashed.ExecutorSeconds <= clean.ExecutorSeconds {
		t.Fatalf("crash did not cost time: clean %g, crashed %g",
			clean.ExecutorSeconds, crashed.ExecutorSeconds)
	}
	// The broadcast warm-up is re-paid on restart: the crash penalty
	// grows with the broadcast size.
	const mb = int64(1) << 20
	smallPenalty := mk(mb, 1).ExecutorSeconds - mk(mb, 0).ExecutorSeconds
	bigPenalty := mk(64*mb, 1).ExecutorSeconds - mk(64*mb, 0).ExecutorSeconds
	if bigPenalty <= smallPenalty {
		t.Fatalf("restart did not re-pay broadcast warm-up: penalty %g (1MB) vs %g (64MB)",
			smallPenalty, bigPenalty)
	}
}

func TestBlacklistAfterRepeatedFailures(t *testing.T) {
	ctx := NewContext(Config{
		Cores: 8, CoresPerExecutor: 4, // 2 executors
		Faults: &FaultProfile{Seed: 21, TaskFailRate: 0.6, MaxExecutorFailures: 3},
	})
	// Several stages so failures accumulate past the threshold.
	for i := 0; i < 4; i++ {
		countStage(t, ctx)
	}
	rep := ctx.Report()
	if len(rep.BlacklistEvents) != 1 {
		t.Fatalf("BlacklistEvents = %v, want exactly one (last executor is protected)",
			rep.BlacklistEvents)
	}
	ev := rep.BlacklistEvents[0]
	if ev.Failures < 3 {
		t.Fatalf("blacklisted below threshold: %+v", ev)
	}
	bl := ctx.BlacklistedExecutors()
	if len(bl) != 1 || bl[0] != ev.Executor {
		t.Fatalf("BlacklistedExecutors() = %v, want [%d]", bl, ev.Executor)
	}
	// Later jobs still complete on the surviving executor.
	out, err := Parallelize(ctx, intRange(10), 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("post-blacklist job returned %d elems", len(out))
	}
}

func TestNegativeStragglerFracDisablesJitter(t *testing.T) {
	cfg := Config{StragglerFrac: -1}.withDefaults()
	if cfg.StragglerFrac != 0 {
		t.Fatalf("StragglerFrac = %g, want 0 for negative input", cfg.StragglerFrac)
	}
	// With the jitter off, the straggler seed cannot move the
	// schedule; with it on (default 0.25), it does.
	run := func(frac float64, seed uint64) float64 {
		ctx := NewContext(Config{Cores: 4, StragglerFrac: frac, Seed: seed})
		rdd := Parallelize(ctx, intRange(16), 4)
		if err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
			tc.Charge(simtime.Work{Elems: 100_000})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ctx.Report().ExecutorSeconds
	}
	if a, b := run(-1, 1), run(-1, 2); a != b {
		t.Fatalf("seed moved a jitter-free schedule: %g vs %g", a, b)
	}
	if a, b := run(0.25, 1), run(0.25, 2); a == b {
		t.Fatalf("straggler jitter had no effect: %g vs %g", a, b)
	}
}
