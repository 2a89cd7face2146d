package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparkdbscan/internal/geom"
)

// ErrOverloaded is returned when a query is shed. Shedding early is
// the backpressure mechanism — under sustained overload the server
// keeps answering the queries it can within their deadlines instead of
// letting every response time grow without bound. The concrete causes
// are distinguishable (all wrap this error): ErrShedEnqueue,
// ErrShedDeadline and ErrShedBrownout.
var ErrOverloaded = errors.New("serve: overloaded")

// The three shed causes, for the error taxonomy: a full admission
// queue, a missed queue-delay deadline discovered at dequeue, and a
// priority shed while the server is degraded or browned out. Each
// satisfies errors.Is(err, ErrOverloaded).
var (
	ErrShedEnqueue  = fmt.Errorf("%w: admission queue full", ErrOverloaded)
	ErrShedDeadline = fmt.Errorf("%w: queue delay budget exceeded", ErrOverloaded)
	ErrShedBrownout = fmt.Errorf("%w: shed by priority while degraded", ErrOverloaded)
)

// ErrClosed is returned for queries issued to (or stranded in) a
// server that has been closed.
var ErrClosed = errors.New("serve: server closed")

// ErrPanicked is returned for a query whose computation panicked. The
// panic is confined to the query: the worker recovers, answers, and
// keeps serving — one poisoned request costs one error response, not
// the process.
var ErrPanicked = errors.New("serve: query panicked")

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// Workers is the number of serving goroutines (default: GOMAXPROCS).
	// Each worker owns one shard of the admission queue.
	Workers int
	// BatchCap caps the micro-batch: a worker that wakes up drains at
	// most this many queued queries and answers them in one kd-tree
	// traversal batch. 1 disables batching (every query is a single
	// dispatch); the default is 32. Batching is adaptive — a worker
	// never waits to fill a batch, it takes whatever is queued.
	BatchCap int
	// QueueCap bounds the admission queue across all shards; a query
	// arriving when every shard is full is rejected with ErrOverloaded.
	// Default: Workers * BatchCap * 4.
	QueueCap int
	// MaxQueueDelay is the default per-query deadline measured from
	// enqueue: a query a worker dequeues later than this is shed with
	// ErrOverloaded rather than answered late. An earlier context
	// deadline on the request takes precedence. Default 100ms;
	// negative disables deadline shedding (and, with it, the health
	// ladder — there is no delay budget to defend).
	MaxQueueDelay time.Duration

	// StallTimeout is how long a busy worker may go without a
	// heartbeat before the supervisor presumes it stuck, deposes it,
	// and spawns a replacement on the same shard. Dead workers (a
	// panic that escaped the per-batch recover) are respawned at the
	// same cadence. Default 20ms; negative disables supervision — a
	// dead worker then starves its shard, which is the contrast arm
	// BENCH_chaos measures.
	StallTimeout time.Duration
	// SupervisorInterval is the supervisor's scan period. Default
	// StallTimeout/4, floored at 1ms.
	SupervisorInterval time.Duration

	// Hedge enables hedged requests: a query still unanswered after
	// the hedge delay (HedgeDelay fixed, or adaptive p99-based when 0)
	// is re-dispatched to another shard and the first answer wins.
	// Hedging engages only while the server is Healthy and is bounded
	// by the retry budget below, so it can never amplify an overload.
	Hedge bool
	// HedgeDelay fixes the hedge delay; 0 tracks the completed-latency
	// p99 adaptively. Negative is invalid (disable with Hedge=false).
	HedgeDelay time.Duration
	// HedgeBudget is the retry budget's refill ratio: each completed
	// primary request earns this fraction of a hedge token. Default
	// 0.1 — hedges are at most ~10% of completed traffic.
	HedgeBudget float64
	// HedgeBurst is the token bucket's capacity (and initial fill).
	// Default 32.
	HedgeBurst int

	// DegradeAt and BrownoutAt are the queue-delay EWMA thresholds of
	// the health ladder, as fractions of MaxQueueDelay. Defaults 0.5
	// and 0.9. Degraded halves the effective queue-delay budget and
	// sheds PriorityLow at admission; BrownedOut quarters it and
	// serves only PriorityHigh.
	DegradeAt  float64
	BrownoutAt float64

	// Chaos injects deterministic faults into the workers (nil: none).
	// See ChaosProfile; meant for tests and BENCH_chaos, never
	// production.
	Chaos *ChaosProfile
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchCap <= 0 {
		o.BatchCap = 32
	}
	if o.QueueCap <= 0 {
		o.QueueCap = o.Workers * o.BatchCap * 4
	}
	if o.MaxQueueDelay == 0 {
		o.MaxQueueDelay = 100 * time.Millisecond
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 20 * time.Millisecond
	}
	if o.SupervisorInterval <= 0 {
		o.SupervisorInterval = o.StallTimeout / 4
		if o.SupervisorInterval < time.Millisecond {
			o.SupervisorInterval = time.Millisecond
		}
	}
	if o.HedgeBudget <= 0 {
		o.HedgeBudget = 0.1
	}
	if o.HedgeBurst <= 0 {
		o.HedgeBurst = 32
	}
	if o.DegradeAt <= 0 {
		o.DegradeAt = 0.5
	}
	if o.BrownoutAt <= 0 {
		o.BrownoutAt = 0.9
	}
	if o.Chaos != nil {
		o.Chaos = o.Chaos.withDefaults()
	}
	return o
}

// liveModel pairs a snapshot with its generation so one atomic load
// gives workers a consistent (snapshot, generation) view per batch.
type liveModel struct {
	s   Snapshot
	gen uint64
}

type result struct {
	a   Assignment
	err error
}

// request is one dispatch of a query. A hedged query has two request
// values sharing done and resp: whichever dispatch resolves it first
// wins the CAS on done and delivers; the loser's work is discarded.
type request struct {
	q        []float64
	ctx      context.Context
	enq      time.Time
	deadline time.Time // zero: no deadline
	pri      Priority
	hedge    bool // this dispatch is the hedged re-dispatch
	shard    int  // which shard admitted it (written by tryEnqueue)
	done     *atomic.Bool
	resp     chan result
}

// Server answers cluster-assignment queries against a hot-swappable
// Model snapshot. Create one with NewServer, query it with Assign (or
// AssignPriority) from any number of goroutines, replace the model
// with Swap, and stop it with Drain (graceful) or Close (abrupt).
type Server struct {
	opts   Options
	cur    atomic.Pointer[liveModel]
	gen    atomic.Uint64
	swapMu sync.Mutex

	shards  []chan *request
	workers []*workerState
	rr      atomic.Uint64 // round-robin admission cursor
	stats   *collector

	admitted atomic.Uint64 // queries accepted into a shard
	resolved atomic.Uint64 // queries whose outcome was decided (done CAS won)

	health      atomic.Int32
	qdelay      atomic.Uint64 // queue-delay EWMA, float64 bits of nanoseconds
	hedgeNs     atomic.Int64  // adaptive hedge delay
	hedgeTokens atomic.Int64  // retry budget, milli-tokens

	mu     sync.RWMutex // guards closed vs. in-flight enqueues and respawns
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewServer starts a serving pool over snap (a frozen *Model or any
// other Snapshot, e.g. a live model's serving view). The caller must
// Close (or Drain) it.
func NewServer(snap Snapshot, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		shards:  make([]chan *request, opts.Workers),
		workers: make([]*workerState, opts.Workers),
		stats:   newCollector(opts.BatchCap),
		done:    make(chan struct{}),
	}
	s.gen.Store(1)
	s.cur.Store(&liveModel{s: snap, gen: 1})
	s.hedgeNs.Store(int64(hedgeDelayInit))
	s.hedgeTokens.Store(int64(opts.HedgeBurst) * milliToken)
	perShard := (opts.QueueCap + opts.Workers - 1) / opts.Workers
	if perShard < 1 {
		perShard = 1
	}
	for i := range s.shards {
		s.shards[i] = make(chan *request, perShard)
		w := &workerState{id: i, shard: s.shards[i]}
		w.beatNow()
		s.workers[i] = w
		s.wg.Add(1)
		go s.runWorker(w, 0)
	}
	s.wg.Add(1)
	go s.supervise()
	return s
}

// Assign answers one query at PriorityNormal, blocking until a worker
// responds, the context is done, or the query is shed. q must have the
// model's dimensionality and must not be mutated until Assign returns.
func (s *Server) Assign(ctx context.Context, q []float64) (Assignment, error) {
	return s.AssignPriority(ctx, q, PriorityNormal)
}

// AssignPriority is Assign with an explicit priority. Priority only
// matters while the server is shedding: Degraded sheds PriorityLow at
// admission, BrownedOut sheds everything below PriorityHigh — load is
// traded away in value order before anyone is shed indiscriminately.
func (s *Server) AssignPriority(ctx context.Context, q []float64, pri Priority) (Assignment, error) {
	noise := Assignment{Cluster: Noise}
	if d := s.cur.Load().s.Dim(); len(q) != d {
		return noise, fmt.Errorf("serve: query has %d coordinates, model wants %d", len(q), d)
	}
	if err := geom.CheckFinite(q); err != nil {
		return noise, fmt.Errorf("serve: query %w", err)
	}

	// Graceful degradation: shed by priority before capacity does it
	// indiscriminately, and tighten the queue-delay budget so the
	// queries we do admit are answered while their answers are useful.
	health := s.HealthState()
	if pri < PriorityHigh {
		if health == HealthBrownedOut || (health == HealthDegraded && pri < PriorityNormal) {
			s.stats.shedPriority.Add(1)
			return noise, ErrShedBrownout
		}
	}
	maxDelay := s.opts.MaxQueueDelay
	switch health {
	case HealthDegraded:
		maxDelay /= 2
	case HealthBrownedOut:
		maxDelay /= 4
	}

	req := &request{
		q:    q,
		ctx:  ctx,
		enq:  time.Now(),
		pri:  pri,
		done: new(atomic.Bool),
		resp: make(chan result, 1),
	}
	if maxDelay > 0 {
		req.deadline = req.enq.Add(maxDelay)
	}
	if cd, ok := ctx.Deadline(); ok && (req.deadline.IsZero() || cd.Before(req.deadline)) {
		req.deadline = cd
	}

	if ok, closed := s.tryEnqueue(req, -1); !ok {
		if closed {
			return noise, ErrClosed
		}
		s.stats.shedEnq.Add(1)
		return noise, ErrShedEnqueue
	}
	s.admitted.Add(1)

	// Hedging: if the primary dispatch hasn't answered within the
	// hedge delay and the retry budget has a token, re-dispatch to
	// another shard and take whichever answer comes first. Only while
	// Healthy — under degradation extra dispatches are fuel on the fire.
	if s.opts.Hedge && health == HealthHealthy {
		timer := time.NewTimer(s.hedgeDelay())
		select {
		case r := <-req.resp:
			timer.Stop()
			return r.a, r.err
		case <-ctx.Done():
			timer.Stop()
			return noise, ctx.Err()
		case <-timer.C:
			if !s.takeHedgeToken() {
				s.stats.hedgeDenied.Add(1)
				break
			}
			hedge := &request{
				q:        req.q,
				ctx:      req.ctx,
				enq:      req.enq,
				deadline: req.deadline,
				pri:      req.pri,
				hedge:    true,
				done:     req.done,
				resp:     req.resp,
			}
			if ok, _ := s.tryEnqueue(hedge, req.shard); ok {
				s.stats.hedges.Add(1)
			} else {
				s.stats.hedgeDenied.Add(1)
			}
		}
	}

	select {
	case r := <-req.resp:
		return r.a, r.err
	case <-ctx.Done():
		// The worker (or shutdown's drain) still resolves the request
		// through the done CAS; nobody blocks on an abandoned request.
		return noise, ctx.Err()
	}
}

// enqueueStaleAfter is the heartbeat age past which a busy worker is
// treated as not making progress for admission scoring: long enough
// that no healthy micro-batch trips it, short against any fault worth
// routing around.
const enqueueStaleAfter = int64(time.Millisecond)

// tryEnqueue admits a request to the shard where it is likeliest to be
// served promptly, skipping avoid (pass -1 to consider every shard; a
// hedge passes its primary's shard — re-dispatching behind the same
// possibly-stuck worker would race nothing). Shards are scored by
// queue length, with a large penalty for workers that look stuck —
// flagged dead, or busy with a stale heartbeat — so admission is
// fault-aware with no explicit routing table: a stalled worker's shard
// loses to any healthy one even while its queue is empty, and work
// flows around the fault. The rotating start breaks ties so idle
// shards share the load. All usable shards full means the pool is at
// least QueueCap queries behind — shed now rather than queue a query
// that would miss its deadline anyway. The read lock pairs with
// shutdown's write lock so no enqueue can race past the final drain.
func (s *Server) tryEnqueue(req *request, avoid int) (ok, closed bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, true
	}
	now := time.Now().UnixNano()
	start := int(s.rr.Add(1))
	best, bestScore := -1, int(^uint(0)>>1)
	for i := 0; i < len(s.shards); i++ {
		idx := (start + i) % len(s.shards)
		if idx == avoid && len(s.shards) > 1 {
			continue
		}
		w := s.workers[idx]
		score := len(s.shards[idx])
		if w.dead.Load() || (w.busy.Load() > 0 && now-w.beat.Load() > enqueueStaleAfter) {
			score += s.opts.QueueCap
		}
		if score < bestScore {
			best, bestScore = idx, score
		}
	}
	if best >= 0 {
		req.shard = best // before the send: the request is shared after it
		select {
		case s.shards[best] <- req:
			return true, false
		default:
		}
	}
	// The shortest queue filled between the scan and the send: fall
	// back to the first non-avoided shard with room.
	for i := 0; i < len(s.shards); i++ {
		idx := (start + i) % len(s.shards)
		if idx == avoid && len(s.shards) > 1 {
			continue
		}
		req.shard = idx
		select {
		case s.shards[idx] <- req:
			return true, false
		default:
		}
	}
	return false, false
}

// deliver resolves a request with res iff no other dispatch has: the
// CAS on done makes the first resolver win and everything later a
// no-op, which is what lets a query be answered by its primary, its
// hedge, a worker's panic recovery, or shutdown — whichever gets there
// first — exactly once.
func (s *Server) deliver(r *request, res result) bool {
	if !r.done.CompareAndSwap(false, true) {
		return false
	}
	s.resolved.Add(1)
	r.resp <- res
	return true
}

// deliverErr resolves a request with an error, bumping counter on win.
func (s *Server) deliverErr(r *request, err error, counter *atomic.Uint64) {
	if s.deliver(r, result{a: Assignment{Cluster: Noise}, err: err}) {
		counter.Add(1)
	}
}

// workerBufs are one worker goroutine's scratch buffers.
type workerBufs struct {
	batch []*request
	live  []*request
	qbuf  []float64
	abuf  []Assignment
	nbrs  []int32
}

// workerIdleBeat bounds how long an idle worker goes between epoch
// checks and heartbeats, so deposed goroutines exit promptly.
const workerIdleBeat = 5 * time.Millisecond

// runWorker is one worker goroutine's life: dequeue, micro-batch,
// answer; epoch tells it when it has been deposed by the supervisor.
func (s *Server) runWorker(w *workerState, epoch uint64) {
	defer s.wg.Done()
	bufs := &workerBufs{
		batch: make([]*request, 0, s.opts.BatchCap),
		live:  make([]*request, 0, s.opts.BatchCap),
		qbuf:  make([]float64, 0, s.opts.BatchCap*8),
		abuf:  make([]Assignment, s.opts.BatchCap),
	}
	for {
		if w.epoch.Load() != epoch {
			return // deposed: a replacement owns this shard now
		}
		w.beatNow()
		var first *request
		select {
		case first = <-w.shard:
		case <-s.done:
			return
		case <-time.After(workerIdleBeat):
			continue
		}
		if !s.processBatch(w, first, bufs) {
			return
		}
	}
}

// processBatch drains and answers one micro-batch. It returns false
// when the goroutine must die: server shutdown mid-stall, or a panic
// that escaped the per-request recover (then the last-gasp recover
// answers the batch with ErrPanicked and flags the worker dead for
// the supervisor — the process never dies with it).
func (s *Server) processBatch(w *workerState, first *request, bufs *workerBufs) (alive bool) {
	w.busy.Add(1)
	var pending []*request
	defer func() {
		w.busy.Add(-1)
		if r := recover(); r != nil {
			for _, req := range pending {
				s.deliverErr(req, ErrPanicked, &s.stats.panicked)
			}
			s.stats.workerDeaths.Add(1)
			w.dead.Store(true)
			alive = false
		}
	}()

	batch := append(bufs.batch[:0], first)
	batchCap := s.opts.BatchCap
	if batchCap > 1 && len(w.shard) == 0 {
		// The first dequeue usually arrives by direct handoff, which
		// wakes this worker before other blocked clients get a
		// timeslice to enqueue theirs. One yield lets those runnable
		// producers catch up so the drain below sees a real batch
		// instead of ping-ponging one query per wakeup; the cost is
		// a single scheduler pass amortized over the whole batch.
		runtime.Gosched()
	}
	for len(batch) < batchCap {
		select {
		case r := <-w.shard:
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	s.stats.observeBatch(len(batch))

	// Admission-control pass: canceled and already-late queries are
	// answered without touching the tree.
	now := time.Now()
	s.observeQueueDelay(now.Sub(first.enq))
	live := bufs.live[:0]
	for _, r := range batch {
		switch {
		case r.ctx.Err() != nil:
			if s.deliver(r, result{a: Assignment{Cluster: Noise}, err: r.ctx.Err()}) {
				s.stats.canceled.Add(1)
			}
		case !r.deadline.IsZero() && now.After(r.deadline):
			s.deliverErr(r, ErrShedDeadline, &s.stats.shedDeadline)
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return true
	}
	pending = live

	poison := -1
	if c := s.opts.Chaos; c.Enabled() {
		seq := w.seq.Add(1) - 1
		switch c.batchFault(w.id, seq) {
		case chaosKill:
			panic("chaos: worker killed")
		case chaosStall:
			// Stuck, not slow: no heartbeats until the stall ends. The
			// supervisor deposes this goroutine and a replacement picks
			// up the shard; this batch is still answered (late,
			// correctly) on wake-up — unless the server shuts down
			// first, in which case its requests get ErrClosed.
			select {
			case <-time.After(c.StallFor):
			case <-s.done:
				for _, r := range live {
					s.deliverErr(r, ErrClosed, &s.stats.closedInFlight)
				}
				pending = nil
				return false
			}
		case chaosSlow:
			// Slow, not stuck: keep heartbeating so supervision leaves
			// the worker alone; this is the latency hedging exists for.
			w.beatNow()
			select {
			case <-time.After(c.SlowFor):
			case <-s.done:
			}
			w.beatNow()
		case chaosPanic:
			poison = c.victim(w.id, seq, len(live))
		}
	}

	lm := s.cur.Load()
	s.serveBatch(w, lm, live, bufs, poison)
	pending = nil
	return true
}

// serveBatch answers live against one (model, generation) snapshot.
// The batched fast path computes every answer in one tree traversal;
// if that panics (a poisoned query, a corrupt model), the batch is
// retried one request at a time so only the request whose compute
// panics pays with ErrPanicked — everyone else still gets their
// answer.
func (s *Server) serveBatch(w *workerState, lm *liveModel, live []*request, bufs *workerBufs, poison int) {
	if len(live) > 1 && poison < 0 {
		ok := func() (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			bufs.qbuf = bufs.qbuf[:0]
			for _, r := range live {
				bufs.qbuf = append(bufs.qbuf, r.q...)
			}
			lm.s.AssignBatch(bufs.qbuf, bufs.abuf[:len(live)])
			return true
		}()
		if ok {
			for i, r := range live {
				s.finish(w, r, bufs.abuf[i], lm.gen)
			}
			return
		}
		s.stats.batchPanics.Add(1)
	}
	for i, r := range live {
		s.serveOne(w, lm, r, bufs, i == poison)
	}
}

// serveOne answers a single request with a per-request recover: a
// panic in the compute answers this request with ErrPanicked and
// nothing else.
func (s *Server) serveOne(w *workerState, lm *liveModel, r *request, bufs *workerBufs, poison bool) {
	defer func() {
		if rec := recover(); rec != nil {
			s.deliverErr(r, ErrPanicked, &s.stats.panicked)
		}
	}()
	if poison {
		panic("chaos: poisoned request")
	}
	var a Assignment
	a, bufs.nbrs = lm.s.AssignOne(r.q, bufs.nbrs)
	s.finish(w, r, a, lm.gen)
}

// finish stamps and delivers one computed answer (unless chaos drops
// it), and does the win-side accounting: latency, hedge bookkeeping,
// retry-budget deposits.
func (s *Server) finish(w *workerState, r *request, a Assignment, gen uint64) {
	a.Generation = gen
	a.Hedged = r.hedge
	if c := s.opts.Chaos; c.Enabled() && c.dropsResponse(w.id, w.rseq.Add(1)-1) {
		s.stats.dropped.Add(1)
		return
	}
	if s.deliver(r, result{a: a}) {
		s.stats.completed.Add(1)
		s.stats.lat.observe(time.Since(r.enq))
		if r.hedge {
			s.stats.hedgeWins.Add(1)
		} else {
			s.addHedgeTokens()
		}
		s.maybeUpdateHedgeDelay()
	} else if r.hedge {
		s.stats.hedgeLost.Add(1)
	}
}

// AssignOne answers one query against the snapshot, reusing the
// caller's neighbour buffer (returned grown for the next call). It is
// the single-request arm of the Snapshot contract; hot loops that lack
// a reusable buffer should use Assign instead.
func (m *Model) AssignOne(q []float64, nbrs []int32) (Assignment, []int32) {
	nbrs = m.tree.Radius(q, m.eps, nbrs[:0], nil)
	return m.classify(nbrs), nbrs
}

// Swap atomically replaces the served model with m and returns the new
// generation. In-flight batches finish on the snapshot they loaded;
// every later batch sees m. There is no pause: queries admitted during
// the swap are answered by one model or the other, never neither, and
// each response's Generation says which. Because workers load the
// (model, generation) pair atomically once per batch, generations stay
// monotone per client even while the supervisor is deposing and
// respawning workers mid-swap. The new model must have the same
// dimensionality (queries are validated at admission against the
// then-current model).
func (s *Server) Swap(snap Snapshot) (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if d := s.cur.Load().s.Dim(); snap.Dim() != d {
		return 0, fmt.Errorf("serve: swap dimensionality %d != current %d", snap.Dim(), d)
	}
	gen := s.gen.Add(1)
	s.cur.Store(&liveModel{s: snap, gen: gen})
	return gen, nil
}

// Model returns the currently served snapshot and its generation.
func (s *Server) Model() (Snapshot, uint64) {
	lm := s.cur.Load()
	return lm.s, lm.gen
}

// Stats snapshots the serving metrics.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot(s.cur.Load().gen)
	st.Health = s.HealthState().String()
	st.QueueDelayEWMA = s.queueDelayEWMA()
	return st
}

// Close stops the server abruptly: workers finish the batch they are
// on, and every query still queued fails with ErrClosed — even one
// that could have been served in microseconds. Use Drain for the
// graceful variant that serves the backlog to a deadline. Close is
// idempotent; Assign calls racing with Close get either a served
// answer or ErrClosed, never a hang.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.shutdown()
}

// Drain retires the server gracefully: admission stops immediately
// (new queries get ErrClosed), but already-admitted queries keep being
// served until the backlog is empty or timeout elapses, whichever is
// first; only then do the workers stop and any stragglers fail with
// ErrClosed. It returns the number of queries that failed — 0 means
// every admitted query was answered. Idempotent with Close: whichever
// runs first wins, the other is a no-op (returning 0).
func (s *Server) Drain(timeout time.Duration) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	s.closed = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for s.resolved.Load() < s.admitted.Load() && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	return s.shutdown()
}

// shutdown stops the workers and fails whatever is still queued.
// Callers must have set closed first; exactly one caller reaches here.
func (s *Server) shutdown() int {
	close(s.done)
	s.wg.Wait()
	failed := 0
	for _, ch := range s.shards {
		for {
			select {
			case r := <-ch:
				if s.deliver(r, result{a: Assignment{Cluster: Noise}, err: ErrClosed}) {
					failed++
				}
				continue
			default:
			}
			break
		}
	}
	s.stats.closedInFlight.Add(uint64(failed))
	return failed
}
