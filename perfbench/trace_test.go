package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two children running in parallel, overlapping on [30,40).
		{ID: 2, Parent: 1, Name: "part", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "part", Start: 30 * ms, End: 60 * ms},
		// A child inside another child's interval adds no coverage.
		{ID: 6, Parent: 1, Name: "inner", Start: 15 * ms, End: 25 * ms},
		// A child that outlives its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "tail", Start: 90 * ms, End: 120 * ms},
		// A grandchild is covered by its own parent, not by root.
		{ID: 5, Parent: 2, Name: "leaf", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  100*ms - (50*ms + 10*ms), // children cover [10,60) and [90,100)
		"part":  (30*ms - 5*ms) + 30*ms,
		"tail":  30 * ms,
		"leaf":  5 * ms,
		"inner": 10 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestRecorderLinksParentsAndRuns(t *testing.T) {
	rec := newRecorder()
	rec.do("a", spanRef{}, func(s spanRef) {
		rec.do("b", s, func(s spanRef) {
			rec.do("c", s, func(spanRef) {})
		})
	})
	rec.do("d", spanRef{}, func(spanRef) {})
	byName := map[string]span{}
	for _, s := range rec.spans {
		byName[s.Name] = s
	}
	a, b, c, d := byName["a"], byName["b"], byName["c"], byName["d"]
	if b.Parent != a.ID || c.Parent != b.ID || a.Parent != 0 {
		t.Errorf("parents: a=%d b=%d c=%d", a.Parent, b.Parent, c.Parent)
	}
	if a.Run != a.ID || b.Run != a.ID || c.Run != a.ID || d.Run != d.ID || d.Run == a.Run {
		t.Errorf("runs: a=%d b=%d c=%d d=%d", a.Run, b.Run, c.Run, d.Run)
	}
	if a.Start > b.Start || b.End > a.End {
		t.Errorf("child b [%v,%v] outside parent a [%v,%v]", b.Start, b.End, a.Start, a.End)
	}
}

func TestNilRecorderStillTimes(t *testing.T) {
	var rec *recorder
	called := false
	d := rec.do("x", spanRef{}, func(spanRef) { called = true; time.Sleep(time.Millisecond) })
	if !called || d < time.Millisecond {
		t.Errorf("called=%v duration=%v", called, d)
	}
	if rec.durations("x") != nil {
		t.Error("a nil recorder keeps no spans")
	}
}
