package spark

import (
	"fmt"
	"math"
	"testing"

	"sparkdbscan/internal/simtime"
)

// TestRunInDriverParPricing: the Amdahl split — the serial residue at
// full cost plus the remainder divided by the worker count — and the
// ledger recording the *total* work regardless of workers.
func TestRunInDriverParPricing(t *testing.T) {
	run := func(workers int) (float64, simtime.Work) {
		ctx := NewContext(Config{Cores: 8})
		dur, err := ctx.RunInDriverPar("merge", workers, func(w, serial *simtime.Work) error {
			w.MergeOps = 8_000_000  // 10 s at 1.25e-6 s/op
			w.SortComps = 1_000_000 // 2 s at 2e-6 s/comp
			serial.SortComps = 1_000_000
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := ctx.Report()
		if dur != rep.DriverSeconds {
			t.Fatalf("returned %g s, report charged %g s", dur, rep.DriverSeconds)
		}
		return rep.DriverSeconds, rep.DriverWork
	}

	s1, w1 := run(1)
	if math.Abs(s1-12) > 1e-9 {
		t.Fatalf("1 worker: %g s, want 12", s1)
	}
	s4, w4 := run(4)
	if math.Abs(s4-(2+10.0/4)) > 1e-9 {
		t.Fatalf("4 workers: %g s, want 4.5 (2 serial + 10/4)", s4)
	}
	if w1 != w4 {
		t.Fatalf("metered work depends on workers: %+v vs %+v", w1, w4)
	}
}

// TestRunInDriverIsOneWorkerPar: RunInDriver must stay float-identical
// to the pre-parallel pricing — it is exactly RunInDriverPar with one
// worker and an all-serial ledger.
func TestRunInDriverIsOneWorkerPar(t *testing.T) {
	charge := simtime.Work{MergeOps: 12345, SerBytes: 1 << 20, StorageBackoffSecs: 0.25}

	a := NewContext(Config{Cores: 4})
	if err := a.RunInDriver("x", func(w *simtime.Work) error { w.Add(charge); return nil }); err != nil {
		t.Fatal(err)
	}
	b := NewContext(Config{Cores: 4})
	_, err := b.RunInDriverPar("x", 1, func(w, serial *simtime.Work) error {
		w.Add(charge)
		serial.Add(charge)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Report(), b.Report()
	if ra.DriverSeconds != rb.DriverSeconds {
		t.Fatalf("DriverSeconds differ: %g vs %g", ra.DriverSeconds, rb.DriverSeconds)
	}
	if ra.DriverWork != rb.DriverWork {
		t.Fatalf("DriverWork differ: %+v vs %+v", ra.DriverWork, rb.DriverWork)
	}
	want := a.Config().Model.Seconds(charge)
	if ra.DriverSeconds != want {
		t.Fatalf("DriverSeconds = %g, want exactly Seconds(charge) = %g", ra.DriverSeconds, want)
	}
}

func TestRunInDriverParPropagatesError(t *testing.T) {
	ctx := NewContext(Config{})
	wantErr := fmt.Errorf("boom")
	if _, err := ctx.RunInDriverPar("x", 4, func(w, serial *simtime.Work) error { return wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	ctx.Stop()
	if _, err := ctx.RunInDriverPar("x", 4, func(w, serial *simtime.Work) error { return nil }); err == nil {
		t.Fatal("stopped context ran driver code")
	}
}
