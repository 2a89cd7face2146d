package simtime

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddAccumulatesEveryField(t *testing.T) {
	a := Work{KDNodes: 1, DistComps: 2, QueueOps: 3, HashOps: 4, Elems: 5,
		TreeBuildOps: 6, MergeOps: 7, SortComps: 8, SerBytes: 9,
		DiskWriteBytes: 10, DiskReadBytes: 11, NetBytes: 12, HDFSBytes: 13, TaskLaunches: 14,
		ChecksumBytes: 16, HDFSRereadBytes: 17, ReReplBytes: 18,
		StorageRetries: 19, StorageBackoffSecs: 0.5}
	var w Work
	w.Add(a)
	w.Add(a)
	if w != (Work{KDNodes: 2, DistComps: 4, QueueOps: 6, HashOps: 8, Elems: 10,
		TreeBuildOps: 12, MergeOps: 14, SortComps: 16, SerBytes: 18,
		DiskWriteBytes: 20, DiskReadBytes: 22, NetBytes: 24, HDFSBytes: 26, TaskLaunches: 28,
		ChecksumBytes: 32, HDFSRereadBytes: 34, ReReplBytes: 36,
		StorageRetries: 38, StorageBackoffSecs: 1}) {
		t.Fatalf("Add missed a field: %+v", w)
	}
}

func TestIsZero(t *testing.T) {
	var w Work
	if !w.IsZero() {
		t.Fatal("zero value not zero")
	}
	w.Elems = 1
	if w.IsZero() {
		t.Fatal("non-zero reported zero")
	}
}

func TestSecondsLinear(t *testing.T) {
	m := DefaultModel()
	w := Work{DistComps: 1000, SerBytes: 1 << 20}
	s1 := m.Seconds(w)
	double := w
	double.Add(w)
	s2 := m.Seconds(double)
	if math.Abs(s2-2*s1) > 1e-12 {
		t.Fatalf("Seconds not linear: %g vs 2*%g", s2, s1)
	}
}

func TestSecondsAdditive(t *testing.T) {
	check := func(a, b uint32) bool {
		m := DefaultModel()
		wa := Work{DistComps: int64(a % 1e6), SerBytes: int64(b % 1e6)}
		wb := Work{KDNodes: int64(b % 1e5), MergeOps: int64(a % 1e5)}
		sum := wa
		sum.Add(wb)
		return math.Abs(m.Seconds(sum)-(m.Seconds(wa)+m.Seconds(wb))) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultModelAnchors(t *testing.T) {
	m := DefaultModel()
	// All unit costs must be positive.
	for name, v := range map[string]float64{
		"KDNode": m.KDNode, "DistComp": m.DistComp, "QueueOp": m.QueueOp,
		"HashOp": m.HashOp, "Elem": m.Elem, "TreeBuildOp": m.TreeBuildOp,
		"MergeOp": m.MergeOp, "SortComp": m.SortComp, "SerByte": m.SerByte,
		"DiskWriteByte": m.DiskWriteByte, "DiskReadByte": m.DiskReadByte,
		"NetByte": m.NetByte, "HDFSByte": m.HDFSByte, "TaskLaunch": m.TaskLaunch,
		"ChecksumByte": m.ChecksumByte, "HDFSReread": m.HDFSReread,
		"ReReplByte": m.ReReplByte, "StorageRetry": m.StorageRetry,
	} {
		if v <= 0 {
			t.Fatalf("%s = %g, must be positive", name, v)
		}
	}
	// The calibration ordering the figures depend on: disk writes are
	// the most expensive byte, network/HDFS the cheapest; a distance
	// computation costs more than a queue/hash op.
	if !(m.DiskWriteByte > m.DiskReadByte && m.DiskReadByte > m.NetByte-1e-12) {
		t.Fatalf("disk/network ordering broken: %g %g %g", m.DiskWriteByte, m.DiskReadByte, m.NetByte)
	}
	if m.DistComp <= m.QueueOp || m.DistComp <= m.HashOp {
		t.Fatal("DistComp must dominate bookkeeping ops")
	}
}

func TestZeroWorkZeroSeconds(t *testing.T) {
	if s := DefaultModel().Seconds(Work{}); s != 0 {
		t.Fatalf("zero work costs %g", s)
	}
}

func TestStorageBackoffSecsPricedAtUnit(t *testing.T) {
	// StorageBackoffSecs is already seconds; the model must pass it
	// through unscaled.
	if s := DefaultModel().Seconds(Work{StorageBackoffSecs: 2.5}); s != 2.5 {
		t.Fatalf("StorageBackoffSecs priced at %g, want 2.5", s)
	}
}

// TestScaleCoversAllFields walks the Work struct by reflection: every
// field is set to an even non-zero value, scaled by 0.5, and must come
// back exactly halved. A field added to Work but forgotten in Scale
// survives unscaled and fails here — the regression class behind the
// recovered-merge charge that re-priced MergeOps only and silently
// dropped SortComps.
func TestScaleCoversAllFields(t *testing.T) {
	var w Work
	v := reflect.ValueOf(&w).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(1000)
		case reflect.Float64:
			f.SetFloat(1000)
		default:
			t.Fatalf("field %s: unhandled kind %s — extend Scale and this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	got := reflect.ValueOf(Scale(w, 0.5))
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		switch f := got.Field(i); f.Kind() {
		case reflect.Int64:
			if f.Int() != 500 {
				t.Errorf("Scale dropped field %s: %d, want 500", name, f.Int())
			}
		case reflect.Float64:
			if f.Float() != 500 {
				t.Errorf("Scale dropped field %s: %g, want 500", name, f.Float())
			}
		}
	}
}

func TestScaleTruncatesCounts(t *testing.T) {
	w := Scale(Work{MergeOps: 3}, 0.5)
	if w.MergeOps != 1 {
		t.Fatalf("Scale(3, 0.5).MergeOps = %d, want 1 (truncate toward zero)", w.MergeOps)
	}
	if !Scale(Work{MergeOps: 7, SortComps: 9}, 0).IsZero() {
		t.Fatal("Scale by 0 must zero the ledger")
	}
}

func TestParallelSeconds(t *testing.T) {
	m := DefaultModel()
	total := Work{MergeOps: 8_000_000, SortComps: 1_000_000}
	serial := Work{SortComps: 1_000_000}
	ts, ss := m.Seconds(total), m.Seconds(serial)
	// 4 workers: serial residue at full cost, the rest divided by 4.
	want := ss + (ts-ss)/4
	if got := m.ParallelSeconds(total, serial, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ParallelSeconds = %g, want %g", got, want)
	}
	// One worker must be float-identical to Seconds(total) — the
	// property that keeps the sequential phases' pinned timings intact.
	if got := m.ParallelSeconds(total, serial, 1); got != ts {
		t.Fatalf("1 worker: %g, want exactly %g", got, ts)
	}
	if got := m.ParallelSeconds(total, total, 8); got != ts {
		t.Fatalf("all-serial ledger: %g, want exactly %g", got, ts)
	}
	// Defensive: serial claimed larger than total clamps to total.
	if got := m.ParallelSeconds(serial, total, 8); got != ss {
		t.Fatalf("clamped: %g, want %g", got, ss)
	}
	if got := m.ParallelSeconds(total, serial, 0); got != ts {
		t.Fatalf("0 workers must price as 1: %g, want %g", got, ts)
	}
}

func TestDefaultedBackoffTable(t *testing.T) {
	// The convention both fault layers share: zero means "use the
	// default", negative means "no backoff", positive passes through.
	cases := []struct {
		v, def, want float64
	}{
		{0, 0.1, 0.1},
		{0, 0.05, 0.05},
		{-1, 0.1, 0},
		{-0.001, 0.05, 0},
		{0.3, 0.1, 0.3},
		{0.05, 0.1, 0.05},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := DefaultedBackoff(c.v, c.def); got != c.want {
			t.Errorf("DefaultedBackoff(%g, %g) = %g, want %g", c.v, c.def, got, c.want)
		}
	}
}
