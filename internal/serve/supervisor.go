package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// Health is the server's degradation state, driven by the queue-delay
// EWMA the supervisor maintains. The ladder trades work away in order
// of how much callers value it: Degraded tightens the queue-delay
// budget and sheds PriorityLow at admission; BrownedOut tightens it
// further and serves only PriorityHigh. Indiscriminate shedding (full
// queue, missed deadline) still applies in every state — the ladder
// decides who is shed first, not whether shedding exists.
type Health int32

const (
	HealthHealthy Health = iota
	HealthDegraded
	HealthBrownedOut
)

func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthBrownedOut:
		return "browned-out"
	}
	return "unknown"
}

// Priority orders queries for brownout shedding. The zero value is
// PriorityNormal, so plain Assign calls are Normal.
type Priority int8

const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// workerState is the supervisor's view of one shard's worker: the
// shard channel, a heartbeat, a busy count, an epoch that deposes
// stale goroutines, and the chaos sequence counters (which survive
// respawns, so a replacement continues its predecessor's schedule).
type workerState struct {
	id    int
	shard chan *request
	epoch atomic.Uint64 // bumped to depose the current goroutine
	beat  atomic.Int64  // unixnano of the last heartbeat
	busy  atomic.Int64  // goroutines of this shard currently inside a batch
	dead  atomic.Bool   // set by a worker's last-gasp recover
	seq   atomic.Uint64 // batch sequence (chaos batch-fault key)
	rseq  atomic.Uint64 // response sequence (chaos drop key)
}

func (w *workerState) beatNow() { w.beat.Store(time.Now().UnixNano()) }

// supervise is the supervisor goroutine: every SupervisorInterval it
// respawns dead workers, deposes-and-replaces stalled ones (busy with
// a heartbeat older than StallTimeout), decays the queue-delay EWMA
// toward zero so an idle server recovers its health, and walks the
// health state machine. It exits when the server shuts down.
func (s *Server) supervise() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SupervisorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		if s.opts.StallTimeout >= 0 {
			now := time.Now().UnixNano()
			for _, w := range s.workers {
				if w.dead.CompareAndSwap(true, false) {
					s.stats.respawns.Add(1)
					s.respawn(w)
					continue
				}
				if w.busy.Load() > 0 && now-w.beat.Load() > int64(s.opts.StallTimeout) {
					s.stats.stalls.Add(1)
					s.stats.respawns.Add(1)
					// Deposing resets the heartbeat so the next tick
					// doesn't double-replace before the new goroutine's
					// first beat; the stalled goroutine answers its
					// in-flight batch when it wakes, sees its epoch
					// superseded, and exits.
					w.beat.Store(now)
					s.respawn(w)
				}
			}
		}
		s.decayQueueDelay()
		s.updateHealth()
	}
}

// respawn starts a fresh goroutine for w under a new epoch. The read
// lock pairs with shutdown's write lock: a respawn either observes
// closed (and does nothing) or completes its wg.Add before shutdown
// reaches wg.Wait, so the waitgroup never races.
func (s *Server) respawn(w *workerState) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	epoch := w.epoch.Add(1)
	w.beatNow()
	s.wg.Add(1)
	go s.runWorker(w, epoch)
}

// observeQueueDelay folds one dequeue-side queue delay into the EWMA
// (alpha 0.2, lock-free CAS on the float bits).
func (s *Server) observeQueueDelay(d time.Duration) {
	const alpha = 0.2
	for {
		old := s.qdelay.Load()
		next := math.Float64bits((1-alpha)*math.Float64frombits(old) + alpha*float64(d))
		if s.qdelay.CompareAndSwap(old, next) {
			return
		}
	}
}

// decayQueueDelay pulls the EWMA toward zero each supervisor tick, so
// health recovers even when no traffic arrives to update it.
func (s *Server) decayQueueDelay() {
	for {
		old := s.qdelay.Load()
		v := math.Float64frombits(old)
		if v < float64(time.Microsecond) {
			return
		}
		if s.qdelay.CompareAndSwap(old, math.Float64bits(v*0.9)) {
			return
		}
	}
}

func (s *Server) queueDelayEWMA() time.Duration {
	return time.Duration(math.Float64frombits(s.qdelay.Load()))
}

// degradeAt and brownoutAt are the queue-delay EWMA thresholds of the
// health ladder, as fractions of MaxQueueDelay. Degraded halves the
// effective queue-delay budget and sheds PriorityLow at admission;
// BrownedOut quarters it and serves only PriorityHigh.
const (
	degradeAt  = 0.5
	brownoutAt = 0.9
)

// updateHealth walks the Healthy → Degraded → BrownedOut ladder from
// the queue-delay EWMA. Upward transitions trigger at degradeAt and
// brownoutAt; downward ones at half the entry threshold, the
// hysteresis that keeps the state from oscillating at a boundary. With
// deadline shedding disabled (MaxQueueDelay <= 0) there is no budget
// to protect and the server stays Healthy.
func (s *Server) updateHealth() {
	if s.opts.MaxQueueDelay <= 0 {
		return
	}
	ew := s.queueDelayEWMA()
	degrade := time.Duration(degradeAt * float64(s.opts.MaxQueueDelay))
	brownout := time.Duration(brownoutAt * float64(s.opts.MaxQueueDelay))
	cur := Health(s.health.Load())
	next := cur
	switch cur {
	case HealthHealthy:
		switch {
		case ew >= brownout:
			next = HealthBrownedOut
		case ew >= degrade:
			next = HealthDegraded
		}
	case HealthDegraded:
		switch {
		case ew >= brownout:
			next = HealthBrownedOut
		case ew < degrade/2:
			next = HealthHealthy
		}
	case HealthBrownedOut:
		switch {
		case ew < degrade/2:
			next = HealthHealthy
		case ew < brownout/2:
			next = HealthDegraded
		}
	}
	if next != cur {
		s.health.Store(int32(next))
		s.stats.healthTransitions.Add(1)
	}
}

// HealthState returns the server's current degradation state.
func (s *Server) HealthState() Health { return Health(s.health.Load()) }

// ---- hedging: adaptive delay + retry budget ----

// hedgeDelay is how long Assign waits before re-dispatching a request
// to another shard: the fixed Options.HedgeDelay when set, otherwise
// the adaptive estimate maintained from the completed-latency
// histogram (half the tracked p99 — a hedge launched *at* the p99
// cannot beat the tail it is racing — clamped to [250µs, 10ms]).
func (s *Server) hedgeDelay() time.Duration {
	if s.opts.HedgeDelay > 0 {
		return s.opts.HedgeDelay
	}
	return time.Duration(s.hedgeNs.Load())
}

const (
	hedgeDelayInit = time.Millisecond
	hedgeDelayMin  = 250 * time.Microsecond
	hedgeDelayMax  = 10 * time.Millisecond
)

// maybeUpdateHedgeDelay refreshes the adaptive hedge delay every 256
// completions (a p99 scan over the histogram is cheap but not free).
func (s *Server) maybeUpdateHedgeDelay() {
	if !s.opts.Hedge || s.opts.HedgeDelay > 0 {
		return
	}
	if s.stats.lat.count.Load()%256 != 0 {
		return
	}
	p99 := s.stats.lat.quantiles(0.99)[0]
	d := p99 / 2
	if d < hedgeDelayMin {
		d = hedgeDelayMin
	}
	if d > hedgeDelayMax {
		d = hedgeDelayMax
	}
	s.hedgeNs.Store(int64(d))
}

// The retry budget is a token bucket in milli-tokens: every completed
// primary deposits HedgeBudget tokens (capped at HedgeBurst), every
// hedge dispatch withdraws one. Hedging therefore can never amplify
// an overload: dispatches are bounded by
// primaries·HedgeBudget + HedgeBurst no matter how slow the server
// gets — when everything is slow the bucket drains and hedging stops.
const milliToken = 1000

func (s *Server) addHedgeTokens() {
	if !s.opts.Hedge {
		return
	}
	add := int64(s.opts.HedgeBudget * milliToken)
	cap := int64(s.opts.HedgeBurst) * milliToken
	for {
		old := s.hedgeTokens.Load()
		next := old + add
		if next > cap {
			next = cap
		}
		if next == old || s.hedgeTokens.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *Server) takeHedgeToken() bool {
	for {
		old := s.hedgeTokens.Load()
		if old < milliToken {
			return false
		}
		if s.hedgeTokens.CompareAndSwap(old, old-milliToken) {
			return true
		}
	}
}
