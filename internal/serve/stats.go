package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is log-linear: one octave per power of two of
// nanoseconds, histSub linear sub-buckets per octave, giving ~6%
// relative resolution across the full range with 8 KiB of counters and
// one atomic add per sample — no locks on the serving hot path.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = 64 * histSub
)

// latencyHist is a fixed-size concurrent histogram of durations.
type latencyHist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
}

func histBucket(ns uint64) int {
	b := bits.Len64(ns) // 0..64
	if b <= histSubBits {
		return int(ns)
	}
	return (b-histSubBits)*histSub + int(ns>>(b-1-histSubBits)) - histSub
}

// histValue returns the lower edge of bucket i, inverting histBucket.
func histValue(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	oct := i/histSub + histSubBits - 1
	minor := uint64(i%histSub) + histSub
	return minor << (oct - histSubBits)
}

func (h *latencyHist) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.buckets[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// quantiles returns the latencies at the given cumulative fractions
// (each in (0,1]) in one pass over the buckets. Values are bucket
// lower edges, i.e. at most ~6% below the true quantile.
func (h *latencyHist) quantiles(qs ...float64) []time.Duration {
	total := h.count.Load()
	out := make([]time.Duration, len(qs))
	if total == 0 {
		return out
	}
	ranks := make([]uint64, len(qs))
	for i, q := range qs {
		r := uint64(q * float64(total))
		if r < 1 {
			r = 1
		}
		ranks[i] = r
	}
	var cum uint64
	qi := 0
	for b := 0; b < histBuckets && qi < len(qs); b++ {
		cum += h.buckets[b].Load()
		for qi < len(qs) && cum >= ranks[qi] {
			out[qi] = time.Duration(histValue(b))
			qi++
		}
	}
	return out
}

// Stats is a point-in-time snapshot of a Server's serving metrics,
// cumulative since the server started.
type Stats struct {
	// Completed counts queries answered with an Assignment.
	Completed uint64 `json:"completed"`
	// Shed counts queries rejected with ErrOverloaded, split by where
	// the rejection happened: a full admission queue at enqueue, a
	// missed deadline discovered at dequeue, or a priority shed while
	// the server was degraded or browned out.
	Shed         uint64 `json:"shed"`
	ShedAtEnq    uint64 `json:"shed_at_enqueue"`
	ShedDeadline uint64 `json:"shed_deadline"`
	ShedPriority uint64 `json:"shed_priority"`
	// Canceled counts queries whose context was done by dequeue time.
	Canceled uint64 `json:"canceled"`
	// Panicked counts queries answered with ErrPanicked (the compute
	// panicked and the worker recovered).
	Panicked uint64 `json:"panicked"`
	// Supervision: worker goroutines that died (panic escaped the
	// per-request recover), stalled workers the supervisor deposed,
	// and replacements it spawned for either cause.
	WorkerDeaths uint64 `json:"worker_deaths"`
	WorkerStalls uint64 `json:"worker_stalls"`
	Respawns     uint64 `json:"respawns"`
	// Dropped counts responses discarded by chaos injection.
	Dropped uint64 `json:"dropped"`
	// Hedging: re-dispatches issued, re-dispatches whose answer won,
	// re-dispatches whose answer lost to the primary, and hedge
	// attempts denied by the retry budget or a full queue.
	Hedges      uint64 `json:"hedges"`
	HedgeWins   uint64 `json:"hedge_wins"`
	HedgeLost   uint64 `json:"hedge_lost"`
	HedgeDenied uint64 `json:"hedge_denied"`
	// ClosedInFlight counts queries failed with ErrClosed at shutdown.
	ClosedInFlight uint64 `json:"closed_in_flight"`
	// Health is the degradation state ("healthy", "degraded",
	// "browned-out"); QueueDelayEWMA is the smoothed dequeue-side
	// queue delay driving it; HealthTransitions counts state changes.
	Health            string        `json:"health"`
	QueueDelayEWMA    time.Duration `json:"queue_delay_ewma_ns"`
	HealthTransitions uint64        `json:"health_transitions"`
	// Batches counts worker wakeups; Completed/Batches is the mean
	// micro-batch size, and BatchSizeDist[k] counts batches that
	// drained exactly k requests (index 0 is unused).
	Batches       uint64   `json:"batches"`
	MeanBatch     float64  `json:"mean_batch"`
	BatchSizeDist []uint64 `json:"batch_size_dist"`
	// Wall-clock enqueue-to-response latency of completed queries.
	LatencyP50  time.Duration `json:"latency_p50_ns"`
	LatencyP99  time.Duration `json:"latency_p99_ns"`
	LatencyP999 time.Duration `json:"latency_p999_ns"`
	LatencyMax  time.Duration `json:"latency_max_ns"`
	LatencyMean time.Duration `json:"latency_mean_ns"`
	// Uptime is the time since the server started; QPS is
	// Completed/Uptime.
	Uptime time.Duration `json:"uptime_ns"`
	QPS    float64       `json:"qps"`
	// Generation is the currently served model generation.
	Generation uint64 `json:"generation"`
}

// collector is the concurrent backing store behind Stats.
type collector struct {
	start             time.Time
	completed         atomic.Uint64
	shedEnq           atomic.Uint64
	shedDeadline      atomic.Uint64
	shedPriority      atomic.Uint64
	canceled          atomic.Uint64
	panicked          atomic.Uint64
	workerDeaths      atomic.Uint64
	stalls            atomic.Uint64
	respawns          atomic.Uint64
	dropped           atomic.Uint64
	hedges            atomic.Uint64
	hedgeWins         atomic.Uint64
	hedgeLost         atomic.Uint64
	hedgeDenied       atomic.Uint64
	closedInFlight    atomic.Uint64
	healthTransitions atomic.Uint64
	batches           atomic.Uint64
	batchDist         []atomic.Uint64 // index = drained batch size
	lat               latencyHist
}

func newCollector(batchCap int) *collector {
	return &collector{
		start:     time.Now(),
		batchDist: make([]atomic.Uint64, batchCap+1),
	}
}

func (c *collector) recordBatch(size int) {
	c.batches.Add(1)
	if size >= len(c.batchDist) {
		size = len(c.batchDist) - 1
	}
	c.batchDist[size].Add(1)
}

func (c *collector) snapshot(generation uint64) Stats {
	s := Stats{
		Completed:         c.completed.Load(),
		ShedAtEnq:         c.shedEnq.Load(),
		ShedDeadline:      c.shedDeadline.Load(),
		ShedPriority:      c.shedPriority.Load(),
		Canceled:          c.canceled.Load(),
		Panicked:          c.panicked.Load(),
		WorkerDeaths:      c.workerDeaths.Load(),
		WorkerStalls:      c.stalls.Load(),
		Respawns:          c.respawns.Load(),
		Dropped:           c.dropped.Load(),
		Hedges:            c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
		HedgeLost:         c.hedgeLost.Load(),
		HedgeDenied:       c.hedgeDenied.Load(),
		ClosedInFlight:    c.closedInFlight.Load(),
		HealthTransitions: c.healthTransitions.Load(),
		Batches:           c.batches.Load(),
		Uptime:            time.Since(c.start),
		Generation:        generation,
	}
	s.Shed = s.ShedAtEnq + s.ShedDeadline + s.ShedPriority
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Completed+s.Canceled+s.ShedDeadline+s.Panicked+s.Dropped+s.HedgeLost) / float64(s.Batches)
	}
	s.BatchSizeDist = make([]uint64, len(c.batchDist))
	for i := range c.batchDist {
		s.BatchSizeDist[i] = c.batchDist[i].Load()
	}
	q := c.lat.quantiles(0.50, 0.99, 0.999)
	s.LatencyP50, s.LatencyP99, s.LatencyP999 = q[0], q[1], q[2]
	s.LatencyMax = time.Duration(c.lat.max.Load())
	if n := c.lat.count.Load(); n > 0 {
		s.LatencyMean = time.Duration(c.lat.sum.Load() / n)
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.QPS = float64(s.Completed) / sec
	}
	return s
}
