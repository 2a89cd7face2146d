package main

import (
	"testing"
	"time"
)

// A stalled server must show in the latency of every request scheduled
// behind the stall, because the open loop times each request from its
// due time rather than from when a sender got to it.
func TestOpenLoopTimesFromDueTimeUnderStall(t *testing.T) {
	const (
		n     = 20
		rate  = 1000 // one request due every millisecond
		stall = 200 * time.Millisecond
	)
	res := openLoop(rate, n, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if res.failed != 0 {
		t.Fatalf("failed = %d, want 0", res.failed)
	}
	for k, l := range res.lat {
		// Request k was due k ms after the start, but the only sender was
		// busy until the stall ended.
		if floor := stall - time.Duration(k)*time.Millisecond; l < floor {
			t.Errorf("request %d: latency %v from its due time, want at least %v", k, l, floor)
		}
	}
	// The pacer kept its schedule while the sender was stuck: it hands
	// requests to the queue, it does not wait for answers.
	if late := percentile(res.late.sorted(), 100); late >= stall/2 {
		t.Errorf("generator ran %v late, want well under the %v stall", late, stall)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(10_000, 100, 4, func(i int) bool { return i%10 != 0 })
	if res.failed != 10 {
		t.Fatalf("failed = %d, want 10", res.failed)
	}
	for i, l := range res.lat {
		if (i%10 == 0) != (l == failedLatency) {
			t.Errorf("request %d: latency %v", i, l)
		}
	}
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	inFlight := make([]bool, 3)
	res := closedLoop(3, 20*time.Millisecond, 0, func(c, i int) bool {
		if inFlight[c] {
			t.Errorf("client %d sent request %d before the previous one returned", c, i)
		}
		inFlight[c] = true
		time.Sleep(time.Millisecond)
		inFlight[c] = false
		return true
	})
	if len(res.lat) == 0 || res.failed != 0 {
		t.Fatalf("got %d requests, %d failed", len(res.lat), res.failed)
	}
	for _, l := range res.lat {
		if l < time.Millisecond {
			t.Fatalf("latency %v shorter than the 1ms service time", l)
		}
	}
}

func TestClosedLoopStopsAfterPerClientRequests(t *testing.T) {
	res := closedLoop(4, time.Minute, 25, func(c, i int) bool { return true })
	if len(res.lat) != 100 || res.failed != 0 {
		t.Fatalf("got %d requests, %d failed; want 100, 0", len(res.lat), res.failed)
	}
}
