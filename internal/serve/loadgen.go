package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sparkdbscan/internal/geom"
)

// Workload is a bank of query points the load generators cycle
// through: flat row-major coordinates, Dim per query.
type Workload struct {
	Coords []float64
	Dim    int
}

// DatasetWorkload queries the model with the dataset's own points —
// the executor loop's access pattern, and the serving-time common case
// of scoring points drawn from the clustered distribution.
func DatasetWorkload(ds *geom.Dataset) Workload {
	return Workload{Coords: ds.Coords, Dim: ds.Dim}
}

// N returns the number of queries in the bank.
func (w Workload) N() int {
	if w.Dim == 0 {
		return 0
	}
	return len(w.Coords) / w.Dim
}

// At returns query i's coordinates (a view; do not mutate).
func (w Workload) At(i int) []float64 {
	base := i * w.Dim
	return w.Coords[base : base+w.Dim : base+w.Dim]
}

// The outcome taxonomy: every query a generator issues ends in exactly
// one of these classes, so a BENCH_chaos arm's availability number is
// explainable — shed where, failed how, rescued by what.
const (
	OutcomeCompleted    = "completed"     // answered by the primary dispatch
	OutcomeHedgeWon     = "hedge_won"     // answered, and the hedged re-dispatch got there first
	OutcomeShedEnqueue  = "shed_enqueue"  // rejected at admission: every shard full
	OutcomeShedDeadline = "shed_deadline" // dequeued past its queue-delay budget
	OutcomeShedBrownout = "shed_brownout" // priority-shed while degraded/browned-out
	OutcomeShed         = "shed"          // ErrOverloaded with no recorded cause
	OutcomePanicked     = "panicked"      // the query's compute panicked (ErrPanicked)
	OutcomeClosed       = "closed"        // server closed before the answer (ErrClosed)
	OutcomeCanceled     = "canceled"      // the caller's context expired first
	OutcomeErrored      = "errored"       // anything else
)

// outcomeNames is indexed by the internal outcome enum below.
var outcomeNames = [...]string{
	OutcomeCompleted, OutcomeHedgeWon,
	OutcomeShedEnqueue, OutcomeShedDeadline, OutcomeShedBrownout, OutcomeShed,
	OutcomePanicked, OutcomeClosed, OutcomeCanceled, OutcomeErrored,
}

const numOutcomes = len(outcomeNames)

func classifyOutcome(a Assignment, err error) int {
	switch {
	case err == nil && a.Hedged:
		return 1
	case err == nil:
		return 0
	case errors.Is(err, ErrShedEnqueue):
		return 2
	case errors.Is(err, ErrShedDeadline):
		return 3
	case errors.Is(err, ErrShedBrownout):
		return 4
	case errors.Is(err, ErrOverloaded):
		return 5
	case errors.Is(err, ErrPanicked):
		return 6
	case errors.Is(err, ErrClosed):
		return 7
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 8
	}
	return 9
}

// ClassifyOutcome names the taxonomy class of one Assign result.
func ClassifyOutcome(a Assignment, err error) string {
	return outcomeNames[classifyOutcome(a, err)]
}

// LoadReport summarizes one load-generation run. Latency distributions
// live in the server's own Stats; the generator reports the demand
// side: what was issued and how each query ended. The legacy aggregate
// fields (Completed, Shed, Canceled, Errored) always sum to Issued;
// Outcomes is the full per-class breakdown.
type LoadReport struct {
	Mode      string        `json:"mode"` // "closed" or "open"
	Clients   int           `json:"clients,omitempty"`
	TargetQPS float64       `json:"target_qps,omitempty"`
	Duration  time.Duration `json:"duration_ns"`
	Issued    uint64        `json:"issued"`
	// Completed includes HedgeWon; Shed sums the three shed classes;
	// Errored sums panicked, closed and other errors.
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Canceled  uint64 `json:"canceled"`
	Errored   uint64 `json:"errored"`
	// The taxonomy detail (only non-zero classes appear in Outcomes).
	HedgeWon     uint64            `json:"hedge_won"`
	ShedEnqueue  uint64            `json:"shed_enqueue"`
	ShedDeadline uint64            `json:"shed_deadline"`
	ShedBrownout uint64            `json:"shed_brownout"`
	Panicked     uint64            `json:"panicked"`
	Closed       uint64            `json:"closed"`
	Outcomes     map[string]uint64 `json:"outcomes"`
	// AchievedQPS is completed queries per wall-clock second;
	// Availability is Completed/Issued.
	AchievedQPS  float64 `json:"achieved_qps"`
	Availability float64 `json:"availability"`
}

type loadCounters struct {
	counts [numOutcomes]atomic.Uint64
}

func (c *loadCounters) record(a Assignment, err error) {
	c.counts[classifyOutcome(a, err)].Add(1)
}

func (c *loadCounters) report(mode string, issued uint64, elapsed time.Duration) LoadReport {
	var n [numOutcomes]uint64
	outcomes := make(map[string]uint64)
	for i := range c.counts {
		n[i] = c.counts[i].Load()
		if n[i] > 0 {
			outcomes[outcomeNames[i]] = n[i]
		}
	}
	r := LoadReport{
		Mode:         mode,
		Duration:     elapsed,
		Issued:       issued,
		Completed:    n[0] + n[1],
		Shed:         n[2] + n[3] + n[4] + n[5],
		Canceled:     n[8],
		Errored:      n[6] + n[7] + n[9],
		HedgeWon:     n[1],
		ShedEnqueue:  n[2],
		ShedDeadline: n[3],
		ShedBrownout: n[4],
		Panicked:     n[6],
		Closed:       n[7],
		Outcomes:     outcomes,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		r.AchievedQPS = float64(r.Completed) / sec
	}
	if issued > 0 {
		r.Availability = float64(r.Completed) / float64(issued)
	}
	return r
}

// LoadOptions parameterizes RunLoad. QPS <= 0 selects the closed loop
// (Clients goroutines issuing back-to-back), QPS > 0 the open loop
// (fixed-rate arrivals, each in its own goroutine).
type LoadOptions struct {
	Clients  int
	QPS      float64
	Duration time.Duration
	// RequestTimeout puts a context deadline on every query (0: none).
	// Chaos arms need it: a dropped response or a starved shard
	// otherwise blocks a closed-loop client forever.
	RequestTimeout time.Duration
	// Priority is the priority every query is issued at.
	Priority Priority
}

func (o LoadOptions) assign(s *Server, q []float64) (Assignment, error) {
	ctx := context.Background()
	if o.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.RequestTimeout)
		defer cancel()
	}
	return s.AssignPriority(ctx, q, o.Priority)
}

// RunLoad drives s with w under o and reports the outcome taxonomy.
func RunLoad(s *Server, w Workload, o LoadOptions) LoadReport {
	if o.QPS > 0 {
		return runOpenLoop(s, w, o)
	}
	return runClosedLoop(s, w, o)
}

// runClosedLoop measures capacity: o.Clients goroutines issue queries
// back-to-back (each waits for its answer before sending the next) for
// o.Duration. Throughput is bounded by the server; adding clients
// raises concurrency, not offered load per client.
func runClosedLoop(s *Server, w Workload, o LoadOptions) LoadReport {
	clients := o.Clients
	if clients < 1 {
		clients = 1
	}
	n := w.N()
	if n == 0 {
		return LoadReport{Mode: "closed", Clients: clients}
	}
	var c loadCounters
	var issued atomic.Uint64
	start := time.Now()
	deadline := start.Add(o.Duration)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i += clients {
				issued.Add(1)
				a, err := o.assign(s, w.At(i%n))
				c.record(a, err)
			}
		}(g)
	}
	wg.Wait()
	rep := c.report("closed", issued.Load(), time.Since(start))
	rep.Clients = clients
	return rep
}

// runOpenLoop measures behaviour under a fixed offered load: queries
// arrive at o.QPS per second regardless of how fast answers come back
// (each in its own goroutine), which is what exposes queueing delay
// and shedding — a closed loop self-throttles and cannot overload the
// server. Arrivals the pacer falls behind on are issued in a burst,
// preserving the offered rate.
func runOpenLoop(s *Server, w Workload, o LoadOptions) LoadReport {
	if o.QPS <= 0 || w.N() == 0 {
		return LoadReport{Mode: "open", TargetQPS: o.QPS}
	}
	var c loadCounters
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(o.Duration)
	var issued uint64
	n := w.N()
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		due := uint64(now.Sub(start).Seconds() * o.QPS)
		for issued < due {
			i := int(issued) % n
			issued++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a, err := o.assign(s, w.At(i))
				c.record(a, err)
			}(i)
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	rep := c.report("open", issued, time.Since(start))
	rep.TargetQPS = o.QPS
	return rep
}
