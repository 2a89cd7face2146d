// Package vcluster schedules task durations onto a configurable number
// of virtual cores and reports the resulting makespan — the simulated
// "time spent in executors" of the paper's figures.
//
// The scheduler mirrors Spark's FIFO within-stage behaviour: tasks are
// launched in partition order, each onto the core that frees up first.
// A deterministic per-task straggler multiplier models the paper's
// t_straggling term (OS jitter, JVM pauses, network hiccups); it is a
// pure function of (seed, task id), so every run of an experiment
// produces identical numbers.
//
// Failure is not free. A task's failed attempts (Task.FailedAttempts)
// each occupy a core for the time the attempt ran before dying, and a
// configurable RetryBackoff elapses before the next attempt may
// launch. Executors — groups of CoresPerExecutor cores — can crash
// once per stage (Options.CrashedExecutors): the crash kills every
// attempt running on the executor's cores at that moment, the
// replacement executor re-pays the broadcast-deserialization warm-up
// (Options.RestartWarmup) on every core, and the killed tasks re-queue
// behind the remaining work. Blacklisted executors
// (Options.BlacklistedExecutors) receive no tasks at all. With none of
// the fault options set, the schedule is byte-identical to the
// pre-fault-layer scheduler, so all recorded experiment figures are
// unchanged.
package vcluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"sparkdbscan/internal/rng"
)

// Task is one schedulable unit: the metered cost of a partition's
// computation, in seconds, plus the attempt history of that partition.
type Task struct {
	ID      int
	Seconds float64
	// FailedAttempts holds the durations of earlier attempts of this
	// task that failed (the time each ran before dying). Each occupies
	// a core for that long, then RetryBackoff elapses before the next
	// attempt launches.
	FailedAttempts []float64
	// SlowFactor > 1 stretches the task's attempts on top of the
	// straggler draw (a fault-profile slow event: cgroup throttling,
	// a sick disk). 0 or 1 means no extra slowdown.
	SlowFactor float64
}

// Options configures a scheduling round.
type Options struct {
	// Cores is the number of virtual cores (p in the paper).
	Cores int
	// LaunchOverhead is added to every task attempt (scheduler
	// dispatch cost).
	LaunchOverhead float64
	// StragglerFrac scales the per-task straggler stretch: each task
	// runs 1 + StragglerFrac*E/2 times slower, with E an Exp(1) draw
	// computed deterministically from Seed and the task ID. The
	// exponential tail matters: the makespan of a wide stage is set by
	// the max over p draws, which grows like ln(p) — the behaviour
	// behind the paper's t_straggling term and the efficiency collapse
	// of its 512-core runs (Fig. 8e). The draw is a property of the
	// task, not the attempt: a retry re-runs the same computation, so
	// it inherits the same stretch.
	StragglerFrac float64
	// Seed drives the deterministic straggler draw.
	Seed uint64
	// WarmupPerCore delays every core's first task (e.g. broadcast
	// deserialization on a fresh executor).
	WarmupPerCore float64
	// Speculation enables Spark-style speculative execution: once all
	// tasks are dispatched, any task whose stretched duration exceeds
	// SpeculationMultiplier x the median is re-launched on the
	// earliest idle core with a fresh straggler draw; the attempt that
	// finishes first wins. This is the standard mitigation for the
	// paper's t_straggling term and is quantified by the speculation
	// ablation bench.
	Speculation bool
	// SpeculationMultiplier defaults to 1.5 (Spark's
	// spark.speculation.multiplier).
	SpeculationMultiplier float64

	// CoresPerExecutor groups cores into executor processes for the
	// fault model; 0 (or >= Cores) means one executor holds every
	// core. Executor e owns cores [e*CoresPerExecutor,
	// (e+1)*CoresPerExecutor).
	CoresPerExecutor int
	// RetryBackoff is the scheduler delay between a failed attempt and
	// the launch of its retry (charged as idle ready-time, not core
	// occupancy).
	RetryBackoff float64
	// CrashPointFrac is how far through its duration the attempt that
	// triggers an executor crash gets before dying, in (0, 1).
	// Default 0.5.
	CrashPointFrac float64
	// RestartWarmup is the per-core warm-up a replacement executor
	// pays after a crash (re-deserializing every live broadcast).
	RestartWarmup float64
	// CrashedExecutors lists executors that crash once during this
	// stage. The crash fires when the executor first becomes fully
	// occupied (its last idle core receives a task); every attempt
	// then running on its cores dies at the crash point and re-queues.
	// An executor whose cores are never all occupied during the stage
	// has nothing meaningful to lose and does not crash.
	CrashedExecutors []int
	// BlacklistedExecutors lists executors excluded from scheduling
	// entirely (spark.blacklist.*). At least one executor must remain
	// usable.
	BlacklistedExecutors []int
}

// Assignment records where and when one task attempt ran.
type Assignment struct {
	Task    Task
	Core    int
	Start   float64
	Finish  float64
	Stretch float64 // straggler multiplier applied
	Attempt int     // 0-based attempt index for this task
	Failed  bool    // the attempt died (retry history or executor crash)
	// Speculated marks an assignment whose surviving attempt is a
	// speculative clone (the original straggler was killed when the
	// clone finished first). Start still records the original
	// attempt's launch; CloneStart is when the winning clone launched
	// on Core — the interval the clone actually occupied is
	// [CloneStart, Finish].
	Speculated bool
	CloneStart float64
}

// BackoffSpan is one scheduler-delay window between a failed attempt
// and the moment its retry became launchable.
type BackoffSpan struct {
	TaskID  int
	Attempt int     // the failed attempt the backoff follows
	Core    int     // core the failed attempt ran on
	Start   float64 // failure time
	Finish  float64 // Start + RetryBackoff
}

// CrashEvent records one executor crash.
type CrashEvent struct {
	Executor int
	Core     int // core of the attempt that triggered the crash
	Time     float64
}

// WarmupSpan is one restart warm-up interval: a replacement executor's
// core re-deserializing the live broadcasts before taking new work.
type WarmupSpan struct {
	Core          int
	Start, Finish float64
}

// Schedule is the outcome of scheduling a task set.
type Schedule struct {
	Makespan    float64
	CoreFinish  []float64
	Assignments []Assignment
	// IdealSpan is sum(cost)/usable cores + overheads-free: the
	// perfectly balanced lower bound, useful for efficiency reporting.
	IdealSpan float64

	// FailedAttempts counts attempts that consumed core time and then
	// died (both retry-history attempts and executor-crash kills).
	FailedAttempts int
	// RetrySeconds is the core-seconds occupied by failed attempts —
	// the work the cluster paid for and threw away.
	RetrySeconds float64
	// BackoffSeconds is the total scheduler delay charged between
	// failed attempts and their retries.
	BackoffSeconds float64
	// ExecutorFailures[e] counts failed attempts that ran on executor
	// e's cores, the signal Spark's blacklist tracks.
	ExecutorFailures []int
	// Restarts counts executor crashes that were repaired by a
	// replacement (each re-paying RestartWarmup on every core).
	Restarts int

	// The fields below are pure timeline detail for observability (the
	// trace recorder and the Gantt renderer); they add no accounting of
	// their own. Warmup echoes Options.WarmupPerCore; UsableCores lists
	// the non-blacklisted core ids ascending; Backoffs, Crashes and
	// RestartWarmups locate every retry-backoff window, executor crash
	// and restart warm-up interval on the simulated timeline.
	Warmup         float64
	UsableCores    []int
	Backoffs       []BackoffSpan
	Crashes        []CrashEvent
	RestartWarmups []WarmupSpan
}

type coreHeap struct {
	free []float64
	id   []int
}

func (h *coreHeap) Len() int { return len(h.free) }
func (h *coreHeap) Less(i, j int) bool {
	if h.free[i] != h.free[j] {
		return h.free[i] < h.free[j]
	}
	return h.id[i] < h.id[j]
}
func (h *coreHeap) Swap(i, j int) {
	h.free[i], h.free[j] = h.free[j], h.free[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}
func (h *coreHeap) Push(x any) { panic("vcluster: fixed-size heap") }
func (h *coreHeap) Pop() any   { panic("vcluster: fixed-size heap") }

// workItem is one pending dispatch: a task plus the earliest time its
// next attempt may launch (retry backoff after a failure).
type workItem struct {
	t     Task
	ready float64
	// redo marks a re-dispatch after an executor crash: the task's
	// retry history was already scheduled, only the fresh attempt runs.
	redo bool
}

// Run schedules tasks in the given order under opts. It panics if
// opts.Cores < 1 or if every executor is blacklisted (programming
// errors, not input conditions).
func Run(tasks []Task, opts Options) Schedule {
	if opts.Cores < 1 {
		panic(fmt.Sprintf("vcluster: need >= 1 core, got %d", opts.Cores))
	}
	cpe := opts.CoresPerExecutor
	if cpe < 1 || cpe > opts.Cores {
		cpe = opts.Cores
	}
	numExec := (opts.Cores + cpe - 1) / cpe
	crashFrac := opts.CrashPointFrac
	if crashFrac <= 0 || crashFrac >= 1 {
		crashFrac = 0.5
	}

	blocked := make([]bool, numExec)
	for _, e := range opts.BlacklistedExecutors {
		if e >= 0 && e < numExec {
			blocked[e] = true
		}
	}
	var usable []int                 // usable core ids, ascending
	usableIn := make([]int, numExec) // usable cores per executor
	for c := 0; c < opts.Cores; c++ {
		if !blocked[c/cpe] {
			usable = append(usable, c)
			usableIn[c/cpe]++
		}
	}
	if len(usable) == 0 {
		panic("vcluster: every executor is blacklisted")
	}

	h := &coreHeap{
		free: make([]float64, len(usable)),
		id:   append([]int(nil), usable...),
	}
	for i := range h.free {
		h.free[i] = opts.WarmupPerCore
	}
	heap.Init(h)

	sched := Schedule{
		CoreFinish:       make([]float64, opts.Cores),
		Assignments:      make([]Assignment, 0, len(tasks)),
		ExecutorFailures: make([]int, numExec),
		Warmup:           opts.WarmupPerCore,
		UsableCores:      append([]int(nil), usable...),
	}
	crashPending := make([]bool, numExec)
	for _, e := range opts.CrashedExecutors {
		if e >= 0 && e < numExec && !blocked[e] {
			crashPending[e] = true
		}
	}
	occupied := make([]int, numExec) // attempt dispatches per executor
	lastAsg := make([]int, opts.Cores)
	for i := range lastAsg {
		lastAsg[i] = -1
	}
	attemptNo := make(map[int]int, len(tasks))

	stretchFor := func(t Task) float64 {
		stretch := 1.0
		if opts.StragglerFrac > 0 {
			u := float64(rng.Hash64(opts.Seed^uint64(t.ID)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
			stretch = 1 + opts.StragglerFrac*(-math.Log(1-u))/2
		}
		if t.SlowFactor > 1 {
			stretch *= t.SlowFactor
		}
		return stretch
	}

	queue := make([]workItem, len(tasks))
	for i, t := range tasks {
		queue[i] = workItem{t: t}
	}

	var total float64
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		t := it.t
		ready := it.ready

		// The task's retry history: each failed attempt occupies the
		// then-earliest core until its failure point, then the backoff
		// elapses before the next attempt may launch.
		if !it.redo {
			for _, fdur := range t.FailedAttempts {
				start := h.free[0]
				if ready > start {
					start = ready
				}
				core := h.id[0]
				finish := start + fdur + opts.LaunchOverhead
				h.free[0] = finish
				heap.Fix(h, 0)
				a := attemptNo[t.ID]
				attemptNo[t.ID] = a + 1
				occupied[core/cpe]++
				lastAsg[core] = len(sched.Assignments)
				sched.Assignments = append(sched.Assignments, Assignment{
					Task: t, Core: core, Start: start, Finish: finish,
					Stretch: 1, Attempt: a, Failed: true,
				})
				sched.FailedAttempts++
				sched.RetrySeconds += finish - start
				sched.ExecutorFailures[core/cpe]++
				ready = finish + opts.RetryBackoff
				sched.BackoffSeconds += opts.RetryBackoff
				sched.Backoffs = append(sched.Backoffs, BackoffSpan{
					TaskID: t.ID, Attempt: a, Core: core,
					Start: finish, Finish: finish + opts.RetryBackoff,
				})
			}
		}

		// The fresh attempt.
		stretch := stretchFor(t)
		dur := t.Seconds*stretch + opts.LaunchOverhead
		start := h.free[0]
		if ready > start {
			start = ready
		}
		core := h.id[0]
		e := core / cpe
		a := attemptNo[t.ID]
		attemptNo[t.ID] = a + 1

		occupied[e]++
		if crashPending[e] && occupied[e] >= usableIn[e] {
			// The executor just became fully occupied; it crashes
			// partway through this attempt, killing every attempt
			// running on its cores.
			crashPending[e] = false
			sched.Restarts++
			crashTime := start + crashFrac*dur
			sched.Crashes = append(sched.Crashes, CrashEvent{
				Executor: e, Core: core, Time: crashTime,
			})
			lastAsg[core] = len(sched.Assignments)
			sched.Assignments = append(sched.Assignments, Assignment{
				Task: t, Core: core, Start: start, Finish: crashTime,
				Stretch: stretch, Attempt: a, Failed: true,
			})
			sched.FailedAttempts++
			sched.RetrySeconds += crashTime - start
			sched.ExecutorFailures[e]++
			queue = append(queue, workItem{t: t, ready: crashTime + opts.RetryBackoff, redo: true})
			sched.BackoffSeconds += opts.RetryBackoff
			sched.Backoffs = append(sched.Backoffs, BackoffSpan{
				TaskID: t.ID, Attempt: a, Core: core,
				Start: crashTime, Finish: crashTime + opts.RetryBackoff,
			})

			for i := 0; i < h.Len(); i++ {
				c2 := h.id[i]
				if c2/cpe != e || c2 == core {
					continue
				}
				li := lastAsg[c2]
				if li < 0 {
					continue
				}
				v := &sched.Assignments[li]
				if v.Failed || v.Finish <= crashTime {
					continue
				}
				// Still running when the executor died: its work so
				// far is lost and it re-queues.
				if v.Start > crashTime {
					v.Finish = v.Start
				} else {
					v.Finish = crashTime
				}
				v.Failed = true
				h.free[i] = crashTime
				total -= v.Task.Seconds // the redo dispatch re-adds it
				sched.FailedAttempts++
				sched.RetrySeconds += v.Finish - v.Start
				sched.ExecutorFailures[e]++
				queue = append(queue, workItem{t: v.Task, ready: crashTime + opts.RetryBackoff, redo: true})
				sched.BackoffSeconds += opts.RetryBackoff
				sched.Backoffs = append(sched.Backoffs, BackoffSpan{
					TaskID: v.Task.ID, Attempt: v.Attempt, Core: c2,
					Start: crashTime, Finish: crashTime + opts.RetryBackoff,
				})
			}
			// The replacement executor re-pays the broadcast warm-up
			// on every core before taking new work.
			for i := 0; i < h.Len(); i++ {
				if h.id[i]/cpe != e {
					continue
				}
				f := h.free[i]
				if f < crashTime {
					f = crashTime
				}
				h.free[i] = f + opts.RestartWarmup
				if opts.RestartWarmup > 0 {
					sched.RestartWarmups = append(sched.RestartWarmups, WarmupSpan{
						Core: h.id[i], Start: f, Finish: f + opts.RestartWarmup,
					})
				}
			}
			heap.Init(h)
			continue
		}

		finish := start + dur
		h.free[0] = finish
		heap.Fix(h, 0)
		lastAsg[core] = len(sched.Assignments)
		sched.Assignments = append(sched.Assignments, Assignment{
			Task: t, Core: core, Start: start, Finish: finish,
			Stretch: stretch, Attempt: a,
		})
		total += t.Seconds
	}

	if opts.Speculation {
		speculate(h, &sched, opts, usable)
	}
	for i := 0; i < h.Len(); i++ {
		sched.CoreFinish[h.id[i]] = h.free[i]
		if h.free[i] > sched.Makespan {
			sched.Makespan = h.free[i]
		}
	}
	for i := range sched.Assignments {
		if sched.Assignments[i].Finish > sched.Makespan {
			sched.Makespan = sched.Assignments[i].Finish
		}
	}
	sched.IdealSpan = total/float64(len(usable)) + opts.WarmupPerCore
	return sched
}

// speculate re-launches outlier tasks on idle cores. A task qualifies
// when its stretched duration exceeds SpeculationMultiplier times the
// median task duration. The surviving finish time is the earlier of the
// original attempt and the clone; the slower attempt is killed at that
// moment (both cores free then), matching Spark's behaviour. Failed
// attempts never speculate — their outcome is already known — and
// clones only launch on usable (non-blacklisted) cores.
func speculate(h *coreHeap, sched *Schedule, opts Options, usable []int) {
	mult := opts.SpeculationMultiplier
	if mult <= 1 {
		mult = 1.5
	}
	var live []int // indices of successful assignments
	for i := range sched.Assignments {
		if !sched.Assignments[i].Failed {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}
	durs := make([]float64, len(live))
	for i, idx := range live {
		a := sched.Assignments[idx]
		durs[i] = a.Finish - a.Start
	}
	sortFloats(durs)
	median := durs[len(durs)/2]
	if median <= 0 {
		return
	}
	// Work on a plain per-core free-time array; the heap is rebuilt at
	// the end.
	free := make([]float64, opts.Cores)
	for i := 0; i < h.Len(); i++ {
		free[h.id[i]] = h.free[i]
	}
	// Slowest outliers first: they benefit most from the idle cores.
	sortByFinishDesc(sched.Assignments, live)
	for _, idx := range live {
		a := &sched.Assignments[idx]
		if a.Finish-a.Start <= mult*median {
			break // sorted: no later entry qualifies either
		}
		clone := usable[0]
		for _, c := range usable[1:] {
			if free[c] < free[clone] {
				clone = c
			}
		}
		if free[clone] >= a.Finish {
			continue // no idle core early enough to help
		}
		// Fresh straggler draw for the clone attempt.
		u := float64(rng.Hash64(opts.Seed^uint64(a.Task.ID)*0x9e3779b97f4a7c15^0x5bec)>>11) / (1 << 53)
		stretch := 1.0
		if opts.StragglerFrac > 0 {
			stretch = 1 + opts.StragglerFrac*(-math.Log(1-u))/2
		}
		cloneStart := free[clone]
		cloneFinish := cloneStart + a.Task.Seconds*stretch + opts.LaunchOverhead
		if cloneFinish < a.Finish {
			// Clone wins; the original attempt is killed immediately,
			// freeing its core (only if the original was that core's
			// last work — true for FIFO tails, which outliers are).
			if free[a.Core] == a.Finish {
				free[a.Core] = cloneFinish
			}
			free[clone] = cloneFinish
			a.Finish = cloneFinish
			a.Core = clone
			a.Stretch = stretch
			a.Speculated = true
			a.CloneStart = cloneStart
		} else {
			// Original wins; the clone is killed when it does.
			free[clone] = a.Finish
		}
	}
	for i := 0; i < h.Len(); i++ {
		h.free[i] = free[h.id[i]]
	}
	heap.Init(h)
}

func sortFloats(xs []float64) { sort.Float64s(xs) }

func sortByFinishDesc(as []Assignment, order []int) {
	sort.Slice(order, func(i, j int) bool {
		return as[order[i]].Finish > as[order[j]].Finish
	})
}

// Efficiency returns IdealSpan/Makespan in (0, 1]; 1 means perfectly
// balanced with zero overhead.
func (s Schedule) Efficiency() float64 {
	if s.Makespan == 0 {
		return 1
	}
	return s.IdealSpan / s.Makespan
}
