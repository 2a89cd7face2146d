package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sparkdbscan/internal/hdfs"
)

// Chrome trace-event export. The format is the JSON flavour Perfetto's
// legacy importer accepts: a traceEvents array of duration ("B"/"E"),
// instant ("i") and metadata ("M") events, timestamps in microseconds.
//
// Track layout:
//
//	pid 0 "driver"     tid 0 "driver"   — phases and stage umbrella spans
//	                   tid 1 "storage"  — storage-fault instants
//	pid 1 "executors"  tid c "core c"   — per-core task attempts, warmups
//
// Per-core intervals never overlap (the scheduler serializes a core;
// speculation wins are drawn from their clone launch), so plain B/E
// nesting is valid. Point-like moments — retry backoffs, executor
// crashes, accumulator commits, storage events — are instants, which
// carry no nesting obligations.
//
// Determinism: events are generated in a fixed order and stable-sorted
// by timestamp, so ties (a span ending exactly where the next begins,
// metadata at t=0) keep generation order, and encoding/json emits
// struct fields in declaration order and map keys sorted.

const (
	pidDriver    = 0
	pidExecutors = 1
	tidDriver    = 0
	tidStorage   = 1
)

// chromeEvent is one trace event. Field order is the on-disk order.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const usec = 1e6 // simulated seconds → trace microseconds

// WriteChrome writes the trace in Chrome trace-event JSON.
func (r *Recorder) WriteChrome(w io.Writer) error {
	data, err := r.ChromeJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ChromeJSON renders the trace as Chrome trace-event JSON. Output is
// byte-identical across runs of the same configuration.
func (r *Recorder) ChromeJSON() ([]byte, error) {
	items := r.timeline()
	var evs []chromeEvent

	// Metadata first: process and thread names, so Perfetto labels the
	// driver track and each core track.
	meta := func(name string, pid, tid int, value string) {
		evs = append(evs, chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": value}})
	}
	meta("process_name", pidDriver, tidDriver, "driver")
	meta("process_name", pidExecutors, tidDriver, "executors")
	meta("thread_name", pidDriver, tidDriver, "driver")
	meta("thread_name", pidDriver, tidStorage, "storage")
	usedCores := map[int]bool{}
	for _, it := range items {
		if it.stage != nil && it.stage.Sched != nil {
			for c := range it.stage.Sched.CoreFinish {
				usedCores[c] = true
			}
		}
	}
	cores := make([]int, 0, len(usedCores))
	for c := range usedCores {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		meta("thread_name", pidExecutors, c, fmt.Sprintf("core %d", c))
	}

	for _, it := range items {
		if it.driver != nil {
			evs = append(evs, driverSpanEvents(it.driver)...)
		} else {
			evs = append(evs, stageEvents(it.stage)...)
		}
	}

	// Stable sort by timestamp: generation order breaks ties, which is
	// exactly what keeps B/E nesting legal when spans touch.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	return json.MarshalIndent(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: evs}, "", " ")
}

func driverSpanEvents(d *DriverSpan) []chromeEvent {
	evs := []chromeEvent{
		{Name: d.Name, Cat: string(d.Kind), Ph: "B", Ts: d.Start * usec,
			Pid: pidDriver, Tid: tidDriver,
			Args: map[string]any{"seconds": d.Dur}},
		{Name: d.Name, Cat: string(d.Kind), Ph: "E", Ts: (d.Start + d.Dur) * usec,
			Pid: pidDriver, Tid: tidDriver},
	}
	evs = append(evs, storageInstants(d.Storage, d.Start)...)
	return evs
}

// storageInstants places a drained batch of storage events as instants
// at the owning span's start: events carry no simulated time of their
// own (the clock belongs to the driver and the stage scheduler), so the
// batch is pinned to the interval whose reads caused it.
func storageInstants(batch []hdfs.StorageEvent, at float64) []chromeEvent {
	evs := make([]chromeEvent, 0, len(batch))
	for _, e := range batch {
		evs = append(evs, chromeEvent{
			Name: string(e.Kind), Cat: "storage", Ph: "i", Ts: at * usec,
			Pid: pidDriver, Tid: tidStorage, S: "t",
			Args: map[string]any{"file": e.File, "block": e.Block, "node": e.Node},
		})
	}
	return evs
}

// coreSpan is one interval a core spends occupied, in stage-relative
// time.
type coreSpan struct {
	start, end float64
	name, cat  string
	args       map[string]any
}

func stageEvents(s *StageRecord) []chromeEvent {
	sched := s.Sched
	if sched == nil {
		return nil
	}
	base := s.Start
	evs := []chromeEvent{
		{Name: s.Name, Cat: "stage", Ph: "B", Ts: base * usec,
			Pid: pidDriver, Tid: tidDriver,
			Args: map[string]any{
				"stage": s.ID, "tasks": len(s.TaskWork), "makespan": sched.Makespan,
			}},
		{Name: s.Name, Cat: "stage", Ph: "E", Ts: (base + sched.Makespan) * usec,
			Pid: pidDriver, Tid: tidDriver},
	}
	evs = append(evs, storageInstants(s.Storage, base)...)

	// Per-core occupancy: warmups, restart warmups and task attempts,
	// emitted per core in chronological order so B/E pairs nest even
	// when intervals touch.
	perCore := map[int][]coreSpan{}
	if sched.Warmup > 0 {
		for _, c := range sched.UsableCores {
			perCore[c] = append(perCore[c], coreSpan{
				start: 0, end: sched.Warmup, name: "warmup", cat: "warmup",
			})
		}
	}
	for _, rw := range sched.RestartWarmups {
		perCore[rw.Core] = append(perCore[rw.Core], coreSpan{
			start: rw.Start, end: rw.Finish, name: "restart warmup", cat: "warmup",
		})
	}
	for _, a := range sched.Assignments {
		name := fmt.Sprintf("task %d", a.Task.ID)
		cat := "task"
		switch {
		case a.Failed:
			name = fmt.Sprintf("task %d attempt %d (failed)", a.Task.ID, a.Attempt)
			cat = "failed"
		case a.Speculated:
			name = fmt.Sprintf("task %d (speculative)", a.Task.ID)
			cat = "speculative"
		}
		perCore[a.Core] = append(perCore[a.Core], coreSpan{
			start: assignmentStart(a), end: a.Finish, name: name, cat: cat,
			args: map[string]any{"task": a.Task.ID, "attempt": a.Attempt},
		})
	}
	coreIDs := make([]int, 0, len(perCore))
	for c := range perCore {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)
	for _, c := range coreIDs {
		spans := perCore[c]
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end < spans[j].end
		})
		for _, sp := range spans {
			evs = append(evs,
				chromeEvent{Name: sp.name, Cat: sp.cat, Ph: "B",
					Ts: (base + sp.start) * usec, Pid: pidExecutors, Tid: c, Args: sp.args},
				chromeEvent{Name: sp.name, Cat: sp.cat, Ph: "E",
					Ts: (base + sp.end) * usec, Pid: pidExecutors, Tid: c})
		}
	}

	// Instants: retry backoffs, executor crashes, accumulator commits.
	for _, b := range sched.Backoffs {
		evs = append(evs, chromeEvent{
			Name: "backoff", Cat: "backoff", Ph: "i", Ts: (base + b.Start) * usec,
			Pid: pidExecutors, Tid: b.Core, S: "t",
			Args: map[string]any{"task": b.TaskID, "attempt": b.Attempt,
				"seconds": b.Finish - b.Start},
		})
	}
	for _, cr := range sched.Crashes {
		evs = append(evs, chromeEvent{
			Name: "executor crash", Cat: "crash", Ph: "i", Ts: (base + cr.Time) * usec,
			Pid: pidExecutors, Tid: cr.Core, S: "t",
			Args: map[string]any{"executor": cr.Executor},
		})
	}
	if len(s.Commits) > 0 {
		won := successfulByTask(sched)
		for task, n := range s.Commits {
			a, ok := won[task]
			if n <= 0 || !ok {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: "acc commit", Cat: "accumulator", Ph: "i",
				Ts:  (base + a.Finish) * usec,
				Pid: pidExecutors, Tid: a.Core, S: "t",
				Args: map[string]any{"task": task, "updates": n},
			})
		}
	}
	return evs
}
