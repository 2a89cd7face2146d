package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
)

// TestClassifyOutcome is the satellite table test: every (Assignment,
// error) pair a Server can hand back maps to exactly one taxonomy
// class, including the wrapped variants errors.Is must see through.
func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		name string
		a    Assignment
		err  error
		want string
	}{
		{"primary answer", Assignment{Cluster: 3}, nil, OutcomeCompleted},
		{"noise answer", Assignment{Cluster: Noise}, nil, OutcomeCompleted},
		{"hedged answer", Assignment{Cluster: 3, Hedged: true}, nil, OutcomeHedgeWon},
		{"queue full", Assignment{}, ErrShedEnqueue, OutcomeShedEnqueue},
		{"deadline shed", Assignment{}, ErrShedDeadline, OutcomeShedDeadline},
		{"brownout shed", Assignment{}, ErrShedBrownout, OutcomeShedBrownout},
		{"bare overload", Assignment{}, ErrOverloaded, OutcomeShed},
		{"wrapped overload", Assignment{}, fmt.Errorf("rpc: %w", ErrOverloaded), OutcomeShed},
		{"wrapped enqueue shed", Assignment{}, fmt.Errorf("rpc: %w", ErrShedEnqueue), OutcomeShedEnqueue},
		{"panicked", Assignment{}, ErrPanicked, OutcomePanicked},
		{"wrapped panic", Assignment{}, fmt.Errorf("rpc: %w", ErrPanicked), OutcomePanicked},
		{"closed", Assignment{}, ErrClosed, OutcomeClosed},
		{"canceled", Assignment{}, context.Canceled, OutcomeCanceled},
		{"deadline exceeded", Assignment{}, context.DeadlineExceeded, OutcomeCanceled},
		{"other error", Assignment{}, errors.New("dim mismatch"), OutcomeErrored},
	}
	for _, c := range cases {
		if got := ClassifyOutcome(c.a, c.err); got != c.want {
			t.Errorf("%s: ClassifyOutcome = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLoadReportBooksBalance: the legacy aggregates and the taxonomy
// detail must tell the same story — Issued is fully partitioned either
// way, and Outcomes carries exactly the non-zero classes.
func TestLoadReportBooksBalance(t *testing.T) {
	var c loadCounters
	feed := []struct {
		a   Assignment
		err error
		n   int
	}{
		{Assignment{Cluster: 1}, nil, 40},
		{Assignment{Cluster: 1, Hedged: true}, nil, 5},
		{Assignment{}, ErrShedEnqueue, 7},
		{Assignment{}, ErrShedDeadline, 3},
		{Assignment{}, ErrShedBrownout, 2},
		{Assignment{}, ErrPanicked, 4},
		{Assignment{}, ErrClosed, 1},
		{Assignment{}, context.DeadlineExceeded, 6},
		{Assignment{}, errors.New("boom"), 2},
	}
	var issued uint64
	for _, f := range feed {
		for i := 0; i < f.n; i++ {
			c.record(f.a, f.err)
			issued++
		}
	}
	r := c.report("closed", issued, time.Second)
	if got := r.Completed + r.Shed + r.Canceled + r.Errored; got != r.Issued {
		t.Fatalf("books don't balance: %d+%d+%d+%d = %d != issued %d",
			r.Completed, r.Shed, r.Canceled, r.Errored, got, r.Issued)
	}
	if r.Completed != 45 || r.HedgeWon != 5 {
		t.Errorf("completed=%d hedgeWon=%d, want 45 and 5", r.Completed, r.HedgeWon)
	}
	if r.Shed != 12 || r.ShedEnqueue != 7 || r.ShedDeadline != 3 || r.ShedBrownout != 2 {
		t.Errorf("shed=%d (%d/%d/%d), want 12 (7/3/2)", r.Shed, r.ShedEnqueue, r.ShedDeadline, r.ShedBrownout)
	}
	if r.Errored != 7 || r.Panicked != 4 || r.Closed != 1 {
		t.Errorf("errored=%d panicked=%d closed=%d, want 7/4/1", r.Errored, r.Panicked, r.Closed)
	}
	if r.Canceled != 6 {
		t.Errorf("canceled=%d, want 6", r.Canceled)
	}
	var fromMap uint64
	for _, v := range r.Outcomes {
		fromMap += v
	}
	if fromMap != issued {
		t.Errorf("Outcomes sums to %d, issued %d", fromMap, issued)
	}
	if r.Availability < 0.64 || r.Availability > 0.65 {
		t.Errorf("availability %.3f, want 45/70", r.Availability)
	}
}

// TestRunLoadWithPriorityAndTimeout smoke-tests the extended load
// options end to end against a live server.
func TestRunLoadWithPriorityAndTimeout(t *testing.T) {
	ds := clusteredDS(22, 1500, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{Workers: 2, BatchCap: 8})
	defer srv.Close()
	r := RunLoad(srv, DatasetWorkload(ds), LoadOptions{
		Clients: 4, Duration: 50 * time.Millisecond,
		RequestTimeout: 50 * time.Millisecond, Priority: PriorityHigh,
	})
	if r.Issued == 0 || r.Completed == 0 {
		t.Fatalf("issued=%d completed=%d", r.Issued, r.Completed)
	}
	if got := r.Completed + r.Shed + r.Canceled + r.Errored; got != r.Issued {
		t.Fatalf("books don't balance: %d != %d", got, r.Issued)
	}
}

// TestRunLoadEmptyWorkload runs both loops over a bank with no queries:
// each returns an empty report of its mode instead of issuing (the
// closed loop used to divide by the bank size).
func TestRunLoadEmptyWorkload(t *testing.T) {
	ds := clusteredDS(23, 200, 2, 2, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{Workers: 1})
	defer srv.Close()
	for _, o := range []LoadOptions{
		{Clients: 2, Duration: 10 * time.Millisecond},
		{QPS: 1000, Duration: 10 * time.Millisecond},
	} {
		r := RunLoad(srv, Workload{Dim: ds.Dim}, o)
		if r.Issued != 0 || r.Completed != 0 {
			t.Errorf("%s loop: issued=%d completed=%d on an empty workload", r.Mode, r.Issued, r.Completed)
		}
		if want := map[bool]string{true: "open", false: "closed"}[o.QPS > 0]; r.Mode != want {
			t.Errorf("mode %q, want %q", r.Mode, want)
		}
	}
}
