// Package spark is an in-process analogue of the Spark runtime the
// paper targets, cut to what its Algorithm 2 uses: a driver
// coordinating executors, resilient distributed datasets (Parallelize,
// record-aware HDFS text input, MapPartitionsWithIndex, Collect,
// ForeachPartition, Checkpoint), read-only broadcast variables,
// write-only accumulators merged at the driver, FIFO task scheduling
// with retries, and lineage-based recomputation when a task attempt
// fails. There is no shuffle: the paper's design exists to avoid one.
//
// Two execution modes exist. In Virtual mode (the default, and the one
// every paper figure uses), tasks execute for real on the host — so
// results are exact — while metering their work into a simtime ledger;
// a vcluster list scheduler then derives how long the stage would have
// taken on cfg.Cores virtual cores. This is how the repository runs the
// paper's 512-core experiments on a laptop. In Real mode, tasks run on
// a goroutine pool of cfg.Cores workers and stages are timed with the
// wall clock.
//
// Failure has a cost here. A failed task attempt occupies its virtual
// core until the failure point, the retry waits out a backoff and then
// re-queues, an executor crash kills every attempt on its cores and
// re-pays the broadcast warm-up on the replacement, and repeatedly
// failing executors are blacklisted (spark.blacklist.*). Faults may
// move time; they never change results.
package spark

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/trace"
	"sparkdbscan/internal/vcluster"
)

// Mode selects how stage time is measured.
type Mode int

const (
	// Virtual executes tasks on the host but reports simulated time on
	// cfg.Cores virtual cores from metered work.
	Virtual Mode = iota
	// Real executes tasks on a pool of cfg.Cores goroutines and
	// reports wall-clock time. cfg.Cores should not exceed the host
	// CPU count for the numbers to mean anything.
	Real
)

func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Real:
		return "real"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FailureInjector decides whether a task attempt fails. It is consulted
// when the attempt starts; returning a non-nil error fails the attempt,
// which the scheduler will retry (recomputing from lineage) up to
// MaxTaskRetries times.
type FailureInjector func(stage, partition, attempt int) error

// Config configures a Context.
type Config struct {
	// Cores is p in the paper: the number of (virtual) cores the
	// cluster offers. Default 1.
	Cores int
	// CoresPerExecutor groups cores into executor processes; broadcast
	// deserialization is paid once per executor, and executor-level
	// faults (crashes, blacklisting) act on these groups. Default 8
	// (two Spark executors per Edison node socket would be 12; 8 is
	// Spark's common default).
	CoresPerExecutor int
	// Mode selects Virtual (default) or Real timing.
	Mode Mode
	// Model prices metered work in Virtual mode. Default
	// simtime.DefaultModel().
	Model *simtime.CostModel
	// StragglerFrac scales the per-task straggler tail in Virtual mode
	// (the paper's t_straggling). Default 0.25; a negative value
	// disables the jitter entirely (0 cannot, as it selects the
	// default).
	StragglerFrac float64
	// Speculation enables speculative re-execution of straggling tasks
	// (spark.speculation). Off by default, as in Spark 1.5.
	Speculation bool
	// Seed makes straggler draws reproducible.
	Seed uint64
	// MaxTaskRetries bounds attempts per task (Spark's default is 4).
	MaxTaskRetries int
	// FailureInjector, when set, can fail task attempts.
	FailureInjector FailureInjector
	// Faults, when set, injects deterministic seeded faults (task
	// failures, slow tasks, executor crashes) into Virtual-mode
	// stages and enables executor blacklisting.
	Faults *FaultProfile
	// HostParallelism is how many OS-level workers actually execute
	// tasks in Virtual mode (wall-clock speed only; no effect on
	// simulated time). Default runtime.GOMAXPROCS(0), so GOMAXPROCS
	// and go test -cpu control it.
	HostParallelism int
	// Tracer, when set, records driver spans and stage schedules on the
	// simulated clock for the observability exports (Virtual mode
	// only). The recorder is a write-only observer: attaching one
	// changes no label and no simulated number.
	Tracer *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Cores < 1 {
		c.Cores = 1
	}
	if c.CoresPerExecutor < 1 {
		c.CoresPerExecutor = 8
	}
	if c.Model == nil {
		c.Model = simtime.DefaultModel()
	}
	if c.StragglerFrac == 0 {
		c.StragglerFrac = 0.25
	} else if c.StragglerFrac < 0 {
		c.StragglerFrac = 0
	}
	if c.MaxTaskRetries < 1 {
		c.MaxTaskRetries = 4
	}
	if c.Faults != nil {
		c.Faults = c.Faults.withDefaults()
	}
	if c.HostParallelism < 1 {
		c.HostParallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// NumExecutors returns how many executor processes cfg.Cores implies.
func (c Config) NumExecutors() int {
	return (c.Cores + c.CoresPerExecutor - 1) / c.CoresPerExecutor
}

// StageReport describes one executed stage.
type StageReport struct {
	ID       int
	Name     string
	Tasks    int
	Failures int     // failed task attempts (each was retried)
	Seconds  float64 // makespan on the virtual/real cores
	Ideal    float64 // perfectly-balanced lower bound (Virtual only)
	Work     simtime.Work
	// FailedWork is the metered work of attempts that failed after
	// computing — paid for and thrown away (lineage recomputation
	// repeats it on the retry).
	FailedWork simtime.Work
	// RetrySeconds is core time occupied by failed attempts
	// (Virtual only).
	RetrySeconds float64
	// BackoffSeconds is scheduler delay charged between failures and
	// their retries (Virtual only).
	BackoffSeconds float64
}

// Report aggregates an application's time split, which is exactly the
// decomposition of the paper's Figure 6: time spent in the driver vs
// time spent in executors.
type Report struct {
	DriverSeconds   float64
	ExecutorSeconds float64
	Stages          []StageReport
	DriverWork      simtime.Work
	// BlacklistEvents records executors excluded from scheduling after
	// exceeding FaultProfile.MaxExecutorFailures.
	BlacklistEvents []BlacklistEvent
	// ExecutorRestarts counts executor crashes repaired by a
	// replacement process.
	ExecutorRestarts int
}

// Total returns driver + executor seconds.
func (r Report) Total() float64 { return r.DriverSeconds + r.ExecutorSeconds }

// FailedAttempts sums failed task attempts across stages.
func (r Report) FailedAttempts() int {
	n := 0
	for _, s := range r.Stages {
		n += s.Failures
	}
	return n
}

// Context is the driver-side handle to the cluster (the paper's
// SparkContext). It is safe for use from a single driver goroutine;
// tasks spawned by the context may run concurrently.
type Context struct {
	cfg Config

	mu               sync.Mutex
	nextRDDID        int
	nextStageID      int
	nextAccID        int
	report           Report
	warmupPending    float64 // per-executor broadcast deser not yet charged
	bcastWarmupTotal float64 // cumulative: what a restarted executor re-pays
	accs             map[int]*accumulatorState
	stopped          bool
	execFailures     []int  // failed attempts attributed to each executor
	blacklist        []bool // executors excluded from scheduling
}

// NewContext creates a driver context.
func NewContext(cfg Config) *Context {
	c := &Context{
		cfg:  cfg.withDefaults(),
		accs: make(map[int]*accumulatorState),
	}
	n := c.cfg.NumExecutors()
	c.execFailures = make([]int, n)
	c.blacklist = make([]bool, n)
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.SetModel(c.cfg.Model)
	}
	return c
}

// Config returns the (defaulted) configuration in effect.
func (c *Context) Config() Config { return c.cfg }

// Stop marks the context stopped; subsequent jobs fail, and a stage
// already running aborts before launching its next task. Mirrors
// SparkContext.stop().
func (c *Context) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Report returns a copy of the application's timing report so far.
func (c *Context) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.report
	r.Stages = append([]StageReport(nil), c.report.Stages...)
	r.BlacklistEvents = append([]BlacklistEvent(nil), c.report.BlacklistEvents...)
	return r
}

// BlacklistedExecutors returns the executors currently excluded from
// scheduling.
func (c *Context) BlacklistedExecutors() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for e, b := range c.blacklist {
		if b {
			out = append(out, e)
		}
	}
	return out
}

// RunInDriver executes f as driver-side code, metering its work into
// the ledger it passes to f. In Virtual mode the ledger's priced
// seconds are added to driver time; in Real mode the wall clock is.
func (c *Context) RunInDriver(name string, f func(w *simtime.Work) error) error {
	_, err := c.RunInDriverPar(name, 1, func(w, _ *simtime.Work) error { return f(w) })
	return err
}

// RunInDriverPar executes f as driver-side code that spreads part of
// its work across `workers` driver cores. f meters everything it does
// into w, and additionally meters its single-threaded residue — work
// that cannot leave one core, like a sort between parallel passes or a
// sequential byte-stream decode — into serial. In Virtual mode the
// phase is priced with the Amdahl split
// Model.ParallelSeconds(w, serial, workers): the serial residue at full
// cost plus the remainder divided by workers. The driver ledger and the
// trace span record the *total* w, so metered work stays byte-identical
// across worker counts; only the derived duration changes. With one
// worker (or serial == w) the price collapses to Model.Seconds(w),
// which is why RunInDriver is exactly the workers==1 case. In Real
// mode the wall clock is used — f is expected to run its parallel
// sections on real goroutines. It returns the seconds charged, so a
// caller can report the phase exactly rather than as a difference of
// running driver-time totals.
func (c *Context) RunInDriverPar(name string, workers int, f func(w, serial *simtime.Work) error) (float64, error) {
	if err := c.checkActive(); err != nil {
		return 0, err
	}
	if workers < 1 {
		workers = 1
	}
	var w, serial simtime.Work
	start := time.Now()
	err := f(&w, &serial)
	elapsed := time.Since(start).Seconds()
	c.mu.Lock()
	c.report.DriverWork.Add(w)
	dur := elapsed
	if c.cfg.Mode == Virtual {
		dur = c.cfg.Model.ParallelSeconds(w, serial, workers)
	}
	// Simulated "now" when this span began: phases and stages are
	// sequential, so the clock is the sum of everything charged so far.
	startClock := c.report.DriverSeconds + c.report.ExecutorSeconds
	c.report.DriverSeconds += dur
	c.mu.Unlock()
	if tr := c.cfg.Tracer; tr != nil && c.cfg.Mode == Virtual {
		tr.RecordDriverSpan(name, trace.KindPhase, startClock, dur, w)
	}
	return dur, err
}

func (c *Context) checkActive() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return fmt.Errorf("spark: context stopped")
	}
	return nil
}

// TaskContext is passed to every task attempt. Tasks charge the work
// they perform and stage accumulator updates through it.
type TaskContext struct {
	Stage     int
	Partition int
	Attempt   int

	work       simtime.Work
	accUpdates []stagedAccUpdate
	ctx        *Context
}

type stagedAccUpdate struct {
	id    int
	value any
}

// Charge adds w to the task's metered work.
func (tc *TaskContext) Charge(w simtime.Work) { tc.work.Add(w) }

// ChargeElems is shorthand for charging n generic element operations.
func (tc *TaskContext) ChargeElems(n int64) { tc.work.Elems += n }

// Work returns the work metered so far by this attempt.
func (tc *TaskContext) Work() simtime.Work { return tc.work }

// attemptFailure is the ledger entry for one failed task attempt.
type attemptFailure struct {
	attempt int
	// work is what the attempt metered before dying (compute
	// failures). Injected failures strike before compute runs on the
	// host; their virtual duration is synthesized from the successful
	// attempt's cost at scheduling time.
	work       simtime.Work
	preCompute bool
}

// injectFailure consults the fault profile, then the user's injector.
func (c *Context) injectFailure(stage, split, attempt int) error {
	if p := c.cfg.Faults; p != nil &&
		p.failsAttempt(stage, split, attempt, c.cfg.MaxTaskRetries) {
		return &errInjectedFault{stage: stage, partition: split, attempt: attempt}
	}
	if c.cfg.FailureInjector != nil {
		return c.cfg.FailureInjector(stage, split, attempt)
	}
	return nil
}

// runStage executes one task per partition index in [0, parts) and
// returns per-partition results. compute is the pipelined stage
// function. Failed attempts are retried up to MaxTaskRetries with
// recomputation from lineage (i.e. compute simply runs again).
func runStage[T any](c *Context, name string, parts int,
	compute func(split int, tc *TaskContext) (T, error)) ([]T, error) {
	if err := c.checkActive(); err != nil {
		var zero []T
		return zero, err
	}
	c.mu.Lock()
	stageID := c.nextStageID
	c.nextStageID++
	warmup := c.warmupPending
	c.warmupPending = 0
	restartWarmup := c.bcastWarmupTotal
	var blacklisted []int
	for e, b := range c.blacklist {
		if b {
			blacklisted = append(blacklisted, e)
		}
	}
	c.mu.Unlock()

	results := make([]T, parts)
	taskWork := make([]simtime.Work, parts)
	taskFails := make([][]attemptFailure, parts)
	taskCommits := make([]int, parts)

	workers := c.cfg.HostParallelism
	if c.cfg.Mode == Real {
		workers = c.cfg.Cores
	}
	if workers > parts {
		workers = parts
	}
	if workers < 1 {
		workers = 1
	}

	start := time.Now()
	var firstErr error
	var errMu sync.Mutex
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for split := 0; split < parts; split++ {
		errMu.Lock()
		stop := firstErr != nil
		errMu.Unlock()
		if stop {
			break
		}
		sem <- struct{}{}
		// A Stop() between task launches aborts the stage: already
		// running tasks drain, no new ones start. The check sits after
		// the semaphore acquire so that with HostParallelism 1 a task
		// calling Stop deterministically halts the very next launch.
		if err := c.checkActive(); err != nil {
			<-sem
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			break
		}
		wg.Add(1)
		go func(split int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, w, fails, commits, err := runTaskWithRetries(c, stageID, split, compute)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			results[split] = res
			taskWork[split] = w
			taskFails[split] = fails
			taskCommits[split] = commits
		}(split)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(start).Seconds()

	prof := c.cfg.Faults
	rep := StageReport{ID: stageID, Name: name, Tasks: parts}
	for _, fails := range taskFails {
		for _, f := range fails {
			rep.FailedWork.Add(f.work)
		}
	}
	var sched vcluster.Schedule
	if c.cfg.Mode == Virtual {
		retryBackoff := 0.1 // Spark resubmit latency for ad-hoc injectors
		var crashed []int
		if prof != nil {
			retryBackoff = prof.RetryBackoff
			crashed = prof.crashedExecutors(stageID, c.cfg.NumExecutors())
		}
		tasks := make([]vcluster.Task, parts)
		for i, w := range taskWork {
			secs := c.cfg.Model.Seconds(w)
			tasks[i] = vcluster.Task{ID: i, Seconds: secs}
			for _, f := range taskFails[i] {
				fsec := c.cfg.Model.Seconds(f.work)
				if f.preCompute {
					// The attempt died partway through work it never
					// metered on the host; charge the failure point's
					// share of the successful attempt's cost.
					frac := 0.5
					if prof != nil {
						frac = prof.failPointFrac(stageID, i, f.attempt)
					}
					fsec = frac * secs
				}
				tasks[i].FailedAttempts = append(tasks[i].FailedAttempts, fsec)
			}
			if prof != nil {
				tasks[i].SlowFactor = prof.slowFactor(stageID, i)
			}
			rep.Work.Add(w)
		}
		sched = vcluster.Run(tasks, vcluster.Options{
			Cores:                c.cfg.Cores,
			LaunchOverhead:       c.cfg.Model.TaskLaunch,
			StragglerFrac:        c.cfg.StragglerFrac,
			Seed:                 c.cfg.Seed ^ uint64(stageID)<<32,
			WarmupPerCore:        warmup,
			Speculation:          c.cfg.Speculation,
			CoresPerExecutor:     c.cfg.CoresPerExecutor,
			RetryBackoff:         retryBackoff,
			RestartWarmup:        restartWarmup,
			CrashedExecutors:     crashed,
			BlacklistedExecutors: blacklisted,
		})
		rep.Seconds = sched.Makespan
		rep.Ideal = sched.IdealSpan
		rep.Failures = sched.FailedAttempts
		rep.RetrySeconds = sched.RetrySeconds
		rep.BackoffSeconds = sched.BackoffSeconds
	} else {
		for _, w := range taskWork {
			rep.Work.Add(w)
		}
		for _, fails := range taskFails {
			rep.Failures += len(fails)
		}
		rep.Seconds = wall
		rep.Ideal = wall
	}

	c.mu.Lock()
	startClock := c.report.DriverSeconds + c.report.ExecutorSeconds
	c.report.Stages = append(c.report.Stages, rep)
	c.report.ExecutorSeconds += rep.Seconds
	c.report.ExecutorRestarts += sched.Restarts
	if prof != nil && prof.MaxExecutorFailures > 0 {
		for e, n := range sched.ExecutorFailures {
			if n == 0 {
				continue
			}
			c.execFailures[e] += n
			if c.blacklist[e] || c.execFailures[e] < prof.MaxExecutorFailures {
				continue
			}
			live := 0
			for _, b := range c.blacklist {
				if !b {
					live++
				}
			}
			if live <= 1 {
				continue // never blacklist the last executor
			}
			c.blacklist[e] = true
			c.report.BlacklistEvents = append(c.report.BlacklistEvents,
				BlacklistEvent{Stage: stageID, Executor: e, Failures: c.execFailures[e]})
		}
	}
	c.mu.Unlock()
	if tr := c.cfg.Tracer; tr != nil && c.cfg.Mode == Virtual {
		// Recorded after the report is updated, purely as observation:
		// the schedule is already priced, so nothing here can move a
		// simulated number.
		schedCopy := sched
		tr.RecordStage(trace.StageRecord{
			ID: stageID, Name: name, Start: startClock,
			Cores: c.cfg.Cores, CoresPerExecutor: c.cfg.CoresPerExecutor,
			Sched: &schedCopy, TaskWork: taskWork, Commits: taskCommits,
		})
	}
	return results, nil
}

// runTaskWithRetries runs one task until success or retry exhaustion,
// returning the successful attempt's work, the ledger of failed
// attempts, and how many accumulator updates the attempt committed (for
// the trace, which attributes commits to the task's simulated finish —
// the driver-side arrival order is host-scheduling noise). Accumulator
// updates are merged only for the successful attempt, so accumulators
// count each partition exactly once per action — matching Spark's
// guarantee for updates inside actions.
func runTaskWithRetries[T any](c *Context, stageID, split int,
	compute func(split int, tc *TaskContext) (T, error)) (T, simtime.Work, []attemptFailure, int, error) {
	var zero T
	var lastErr error
	var fails []attemptFailure
	for attempt := 0; attempt < c.cfg.MaxTaskRetries; attempt++ {
		tc := &TaskContext{Stage: stageID, Partition: split, Attempt: attempt, ctx: c}
		if err := c.injectFailure(stageID, split, attempt); err != nil {
			lastErr = err
			fails = append(fails, attemptFailure{attempt: attempt, preCompute: true})
			continue
		}
		res, err := compute(split, tc)
		if err != nil {
			lastErr = err
			fails = append(fails, attemptFailure{attempt: attempt, work: tc.work})
			continue
		}
		c.commitAccUpdates(tc)
		return res, tc.work, fails, len(tc.accUpdates), nil
	}
	return zero, simtime.Work{}, fails, 0,
		fmt.Errorf("spark: stage %d task %d failed %d attempts: %w",
			stageID, split, c.cfg.MaxTaskRetries, lastErr)
}
