package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// exported function it calls. Run is the id of the root span of the
// tree the span belongs to, so every span of one repetition or one
// request shares it.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Run    int64         `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRef identifies an open span to its children. The zero value is
// "no parent".
type spanRef struct{ id, run int64 }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: do calls straight through and records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs f inside a span named name under parent and returns f's
// duration (measured whether or not the recorder is nil).
func (rec *recorder) do(name string, parent spanRef, f func(spanRef)) time.Duration {
	if rec == nil {
		start := time.Now()
		f(spanRef{})
		return time.Since(start)
	}
	rec.mu.Lock()
	rec.next++
	ref := spanRef{id: rec.next, run: parent.run}
	rec.mu.Unlock()
	if ref.run == 0 {
		ref.run = ref.id
	}
	start := time.Since(rec.t0)
	f(ref)
	end := time.Since(rec.t0)
	rec.mu.Lock()
	rec.spans = append(rec.spans, span{ID: ref.id, Parent: parent.id, Run: ref.run, Name: name, Start: start, End: end})
	rec.mu.Unlock()
	return end - start
}

// durations returns the durations of every span named name, in seconds.
func (rec *recorder) durations(name string) []float64 {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []float64
	for _, s := range rec.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another (parallel partitions); the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// spanFile is what the recorder writes when the run ends.
type spanFile struct {
	Envelope envelope                 `json:"envelope"`
	Workload string                   `json:"workload"`
	SelfNS   map[string]time.Duration `json:"self_ns"`
	Spans    []span                   `json:"spans"`
}

// write stores every span, with per-name self times, as JSON at path.
func (rec *recorder) write(path, workload string, env envelope) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	data, err := json.Marshal(spanFile{Envelope: env, Workload: workload, SelfNS: selfTimes(rec.spans), Spans: rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
