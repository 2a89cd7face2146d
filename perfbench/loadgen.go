package main

import (
	"sync"
	"syscall"
	"time"
)

// failedLatency stands in for the latency of a request that failed or
// was refused, so it misses every latency limit.
const failedLatency = time.Hour

// loopResult is what a load generator observed.
type loopResult struct {
	// lat is each request's latency: from its send (closed loop) or its
	// due time (open loop) to its answer; failedLatency when it failed.
	lat    latencies
	failed int
	// elapsed runs from the first send (or due time) to the last answer.
	elapsed time.Duration
	// late is, per open-loop request, how long after its due time the
	// generator handed it to a sender (nil for a closed loop).
	late latencies
}

// closedLoop runs clients goroutines for d, or until each has sent
// perClient requests when perClient > 0. Each sends its next request
// only after the previous one returned, so a slow system receives less
// load. call(c, i) sends client c's i-th request and reports success.
func closedLoop(clients int, d time.Duration, perClient int, call func(c, i int) bool) loopResult {
	lats := make([]latencies, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; perClient <= 0 || i < perClient; i++ {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				if call(c, i) {
					lats[c] = append(lats[c], time.Since(t0))
				} else {
					lats[c] = append(lats[c], failedLatency)
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	for c := range lats {
		res.lat = append(res.lat, lats[c]...)
		res.failed += fails[c]
	}
	return res
}

// openLoop sends n requests on a fixed schedule of rate per second,
// regardless of how fast they are answered, through a fixed pool of
// senders. The pacer sleeps until each due time (sleepUntil; it never
// busy-waits) and then hands the request to the senders; a request
// waiting for a free sender is still timed from its due time, so a
// stall is charged to every request scheduled behind it. call(i) sends
// request i and reports success.
func openLoop(rate float64, n, senders int, call func(i int) bool) loopResult {
	type arrival struct {
		i   int
		due time.Time
	}
	res := loopResult{lat: make(latencies, n), late: make(latencies, n)}
	// Sized to the number of sends, so the pacer never blocks on a
	// stalled system and keeps its schedule.
	queue := make(chan arrival, n)
	lastDone := make([]time.Time, senders)
	fails := make([]int, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for a := range queue {
				ok := call(a.i)
				end := time.Now()
				if ok {
					res.lat[a.i] = end.Sub(a.due)
				} else {
					res.lat[a.i] = failedLatency
					fails[s]++
				}
				lastDone[s] = end
			}
		}(s)
	}
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		res.late[i] = time.Since(due)
		queue <- arrival{i, due}
	}
	close(queue)
	wg.Wait()
	last := start
	for s := range lastDone {
		if lastDone[s].After(last) {
			last = lastDone[s]
		}
		res.failed += fails[s]
	}
	res.elapsed = last.Sub(start)
	return res
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. When the
// process is idle the Go runtime rounds a time.Sleep wake-up up to its
// poller's millisecond tick, which would make a pacer run up to a
// millisecond late; nanosleep wakes within tens of microseconds, and
// neither spins.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep only returns early; the loop re-checks.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
