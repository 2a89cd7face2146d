package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparkdbscan/internal/dbscan"
)

// chaosSeeds are the built-in chaos schedules the serving invariant is
// checked against; CHAOS_SEED in the environment (the CI chaos matrix
// sets it) adds one more.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds := []uint64{53, 9001}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		s, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestChaosScheduleDeterministic pins the determinism contract: the
// same profile renders a byte-identical fault schedule on every call,
// a different seed renders a different one, and every fault kind
// actually appears at these rates.
func TestChaosScheduleDeterministic(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		p := &ChaosProfile{
			Seed:      seed,
			KillRate:  0.05,
			StallRate: 0.05,
			SlowRate:  0.1,
			PanicRate: 0.1,
		}
		a := p.Schedule(8, 256)
		if b := p.Schedule(8, 256); a != b {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		q := *p
		q.Seed = seed + 1
		if a == q.Schedule(8, 256) {
			t.Fatalf("seed %d and %d render the same schedule", seed, seed+1)
		}
		for _, want := range []byte{'K', 'T', 's', 'P', '-'} {
			found := false
			for i := 0; i < len(a); i++ {
				if a[i] == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: fault %q never fires in 8x256 draws", seed, want)
			}
		}
	}
}

// TestChaosDrawsPure checks the per-decision draws are pure functions:
// victim choice and response drops repeat exactly and stay in range.
func TestChaosDrawsPure(t *testing.T) {
	p := &ChaosProfile{Seed: 7, PanicRate: 1, DropRate: 0.5}
	for seq := uint64(0); seq < 64; seq++ {
		v := p.victim(3, seq, 16)
		if v < 0 || v >= 16 {
			t.Fatalf("victim(3,%d,16) = %d out of range", seq, v)
		}
		if v2 := p.victim(3, seq, 16); v2 != v {
			t.Fatalf("victim not pure: %d then %d", v, v2)
		}
		if p.dropsResponse(3, seq) != p.dropsResponse(3, seq) {
			t.Fatal("dropsResponse not pure")
		}
	}
}

// runVerifiedLoad drives srv from clients closed-loop goroutines for d,
// verifying every successful answer against the immutable snapshot its
// generation names (the "faults never move answers" pin) and that each
// client's generations are monotone. It returns the outcome taxonomy
// counts.
func runVerifiedLoad(t *testing.T, srv *Server, w Workload, byGen func(uint64) *Model, clients int, d, timeout time.Duration) map[string]uint64 {
	t.Helper()
	var mu sync.Mutex
	counts := make(map[string]uint64)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make(map[string]uint64)
			var lastGen uint64
			for i := g; time.Now().Before(deadline); i += clients {
				q := w.At(i % w.N())
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				a, err := srv.Assign(ctx, q)
				cancel()
				local[ClassifyOutcome(a, err)]++
				if err != nil {
					continue
				}
				if a.Generation < lastGen {
					errc <- fmt.Errorf("generation went backwards: %d after %d", a.Generation, lastGen)
					return
				}
				lastGen = a.Generation
				if want := byGen(a.Generation).Assign(q); a.Cluster != want.Cluster || a.Core != want.Core {
					errc <- fmt.Errorf("chaos moved an answer: got (%d,%v), snapshot gen %d says (%d,%v)",
						a.Cluster, a.Core, a.Generation, want.Cluster, want.Core)
					return
				}
			}
			mu.Lock()
			for k, v := range local {
				counts[k] += v
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	return counts
}

func completedOf(c map[string]uint64) uint64 {
	return c[OutcomeCompleted] + c[OutcomeHedgeWon]
}

func issuedOf(c map[string]uint64) uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// TestPanicConfinedToRequest is the satellite pin: a panic inside the
// model compute costs the poisoned request an ErrPanicked response —
// never the process, never the worker, never the rest of the batch.
// The poison here is a corrupt model (nil per-point keys under live
// node minima), the non-chaos way compute dies in production.
func TestPanicConfinedToRequest(t *testing.T) {
	ds := clusteredDS(11, 1500, 2, 4, 4)
	good, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	poisoned := &Model{} // good with its keys torn out: the leaf scan panics
	*poisoned = *good
	poisoned.keys = nil

	srv := NewServer(poisoned, Options{Workers: 2, BatchCap: 8})
	defer srv.Close()

	q := ds.At(0) // a clustered point: its neighbourhood has core points
	if _, err := srv.Assign(context.Background(), q); !errors.Is(err, ErrPanicked) {
		t.Fatalf("poisoned compute returned %v, want ErrPanicked", err)
	}

	// The worker recovered: same server, swap in the good model, and it
	// serves correct answers without any respawn having happened.
	if _, err := srv.Swap(good); err != nil {
		t.Fatalf("swap after panic: %v", err)
	}
	a, err := srv.Assign(context.Background(), q)
	if err != nil {
		t.Fatalf("assign after recovery: %v", err)
	}
	if want := good.Assign(q); a.Cluster != want.Cluster || a.Core != want.Core {
		t.Fatalf("post-recovery answer (%d,%v) != direct (%d,%v)", a.Cluster, a.Core, want.Cluster, want.Core)
	}
	st := srv.Stats()
	if st.Panicked == 0 {
		t.Error("Panicked not counted")
	}
	if st.WorkerDeaths != 0 {
		t.Errorf("per-request recover leaked into a worker death (%d)", st.WorkerDeaths)
	}
}

// gatedSnapshot is a one-dimensional stub: Assign blocks on release for
// the query at 0 (announcing itself on entered), panics for the query
// at panicAt, and answers everything else with gatedAnswer.
type gatedSnapshot struct {
	entered, release chan struct{}
	panicAt          float64
}

var gatedAnswer = Assignment{Cluster: 7, Core: true}

func (g *gatedSnapshot) Dim() int { return 1 }

func (g *gatedSnapshot) Assign(q []float64) Assignment {
	switch q[0] {
	case 0:
		g.entered <- struct{}{}
		<-g.release
	case g.panicAt:
		panic("corrupt snapshot")
	}
	return gatedAnswer
}

// TestPanicInsideBatchConfinedToRequest: a non-chaos compute panic in
// the middle of a multi-request micro-batch costs only its own request
// an ErrPanicked; the rest of the batch is answered and the worker
// lives. The first query holds the only worker while eight more queue
// up, so they are drained as one batch.
func TestPanicInsideBatchConfinedToRequest(t *testing.T) {
	snap := &gatedSnapshot{entered: make(chan struct{}), release: make(chan struct{}), panicAt: 5}
	srv := NewServer(snap, Options{Workers: 1, BatchCap: 8, StallTimeout: -1, MaxQueueDelay: -1})
	defer srv.Close()

	firstErr := make(chan error, 1)
	go func() {
		_, err := srv.Assign(context.Background(), []float64{0})
		firstErr <- err
	}()
	<-snap.entered

	const queued = 8
	answers := make([]Assignment, queued)
	errs := make([]error, queued)
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = srv.Assign(context.Background(), []float64{float64(1 + i)})
		}(i)
	}
	for srv.admitted.Load() < 1+queued {
		time.Sleep(100 * time.Microsecond)
	}
	close(snap.release)
	wg.Wait()
	if err := <-firstErr; err != nil {
		t.Fatalf("blocked first query: %v", err)
	}

	for i := 0; i < queued; i++ {
		if float64(1+i) == snap.panicAt {
			if !errors.Is(errs[i], ErrPanicked) {
				t.Errorf("panicking query %d returned %v, want ErrPanicked", 1+i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("query %d: %v", 1+i, errs[i])
			continue
		}
		if a := answers[i]; a.Cluster != gatedAnswer.Cluster || a.Core != gatedAnswer.Core {
			t.Errorf("query %d answered %+v, want %+v", 1+i, a, gatedAnswer)
		}
	}
	st := srv.Stats()
	if st.WorkerDeaths != 0 {
		t.Errorf("per-request recover leaked into %d worker deaths", st.WorkerDeaths)
	}
	var multi uint64
	for size, c := range st.BatchSizeDist {
		if size > 1 {
			multi += c
		}
	}
	if multi == 0 {
		t.Errorf("no batch held more than one request: %v", st.BatchSizeDist)
	}
}

// TestChaosPanicOnlyPoisonsVictim: with PanicRate injection the victim
// gets ErrPanicked and everyone else in its batch still gets the
// fault-free answer (runVerifiedLoad checks every success against the
// model).
func TestChaosPanicOnlyPoisonsVictim(t *testing.T) {
	ds := clusteredDS(12, 2000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	for _, seed := range chaosSeeds(t) {
		srv := NewServer(m, Options{
			Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
			Chaos: &ChaosProfile{Seed: seed, PanicRate: 0.2},
		})
		counts := runVerifiedLoad(t, srv, DatasetWorkload(ds), func(uint64) *Model { return m },
			8, 120*time.Millisecond, 0)
		srv.Close()
		if counts[OutcomePanicked] == 0 {
			t.Errorf("seed %d: no request was poisoned at PanicRate 0.2", seed)
		}
		if completedOf(counts) == 0 {
			t.Errorf("seed %d: nothing completed", seed)
		}
	}
}

// TestSupervisorRespawnsKilledWorkers: with kill injection and
// supervision on, worker deaths happen and the service keeps answering
// — deaths are respawned and availability stays high.
func TestSupervisorRespawnsKilledWorkers(t *testing.T) {
	ds := clusteredDS(13, 2000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	for _, seed := range chaosSeeds(t) {
		srv := NewServer(m, Options{
			Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
			StallTimeout: 10 * time.Millisecond, SupervisorInterval: time.Millisecond,
			Chaos: &ChaosProfile{Seed: seed, KillRate: 0.05},
		})
		counts := runVerifiedLoad(t, srv, DatasetWorkload(ds), func(uint64) *Model { return m },
			8, 250*time.Millisecond, 100*time.Millisecond)
		st := srv.Stats()
		srv.Close()
		if st.WorkerDeaths == 0 {
			t.Fatalf("seed %d: no worker died at KillRate 0.05", seed)
		}
		// Deaths in the final supervisor interval may not be respawned
		// yet when the snapshot is taken — allow one lag per worker.
		if st.Respawns+4 < st.WorkerDeaths {
			t.Errorf("seed %d: %d deaths but only %d respawns", seed, st.WorkerDeaths, st.Respawns)
		}
		if c, n := completedOf(counts), issuedOf(counts); float64(c) < 0.9*float64(n) {
			t.Errorf("seed %d: availability %d/%d under supervision", seed, c, n)
		}
	}
}

// TestNoSupervisionShardStarves is the contrast arm: same kill, no
// supervisor — the dead worker's shard starves and queries time out.
func TestNoSupervisionShardStarves(t *testing.T) {
	ds := clusteredDS(14, 1000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{
		Workers: 1, BatchCap: 4, MaxQueueDelay: -1,
		StallTimeout: -1, // supervision off
		Chaos:        &ChaosProfile{Seed: 1, KillRate: 1},
	})
	defer srv.Close()

	q := ds.At(0)
	if _, err := srv.Assign(context.Background(), q); !errors.Is(err, ErrPanicked) {
		t.Fatalf("first query on a killed worker: %v, want ErrPanicked", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := srv.Assign(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query into a starved shard: %v, want DeadlineExceeded", err)
	}
	st := srv.Stats()
	if st.WorkerDeaths != 1 || st.Respawns != 0 {
		t.Errorf("deaths=%d respawns=%d, want 1 and 0", st.WorkerDeaths, st.Respawns)
	}
}

// TestStalledWorkerDeposedAndAnswers: a stalled worker is deposed and
// replaced by the supervisor, yet its in-flight batch is still answered
// correctly (late) when the stall ends — latency moves, answers don't.
func TestStalledWorkerDeposedAndAnswers(t *testing.T) {
	ds := clusteredDS(15, 1000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{
		Workers: 1, BatchCap: 4, MaxQueueDelay: -1,
		StallTimeout: 5 * time.Millisecond, SupervisorInterval: time.Millisecond,
		Chaos: &ChaosProfile{Seed: 2, StallRate: 1, StallFor: 25 * time.Millisecond},
	})
	defer srv.Close()

	q := ds.At(0)
	start := time.Now()
	a, err := srv.Assign(context.Background(), q)
	if err != nil {
		t.Fatalf("stalled query: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("stall did not cost latency: %v", elapsed)
	}
	if want := m.Assign(q); a.Cluster != want.Cluster || a.Core != want.Core {
		t.Errorf("stalled answer (%d,%v) != direct (%d,%v)", a.Cluster, a.Core, want.Cluster, want.Core)
	}
	// The supervisor must have deposed the stalled goroutine and spawned
	// a replacement while the query was stuck.
	st := srv.Stats()
	if st.WorkerStalls == 0 || st.Respawns == 0 {
		t.Errorf("stalls=%d respawns=%d, want both > 0", st.WorkerStalls, st.Respawns)
	}
}

// TestHotSwapUnderChaos is the satellite race test: hot-swaps while
// workers are being killed, stalled, slowed and hedged, with every
// response checked against the snapshot its generation names and
// generation stamps monotone per client. Run with -race this is the
// strongest concurrency pin in the package.
func TestHotSwapUnderChaos(t *testing.T) {
	mA, mB := stressModels(t)
	byGen := func(gen uint64) *Model {
		if gen%2 == 1 {
			return mA
		}
		return mB
	}
	for _, seed := range chaosSeeds(t) {
		srv := NewServer(mA, Options{
			Workers: 8, BatchCap: 16, QueueCap: 4096, MaxQueueDelay: -1,
			StallTimeout: 10 * time.Millisecond, SupervisorInterval: time.Millisecond,
			Hedge: true, HedgeDelay: 2 * time.Millisecond,
			Chaos: &ChaosProfile{
				Seed:      seed,
				KillRate:  0.01,
				StallRate: 0.01, StallFor: 15 * time.Millisecond,
				SlowRate: 0.05, SlowFor: 2 * time.Millisecond,
				PanicRate: 0.02,
			},
		})
		stop := make(chan struct{})
		var swapWG sync.WaitGroup
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			next := mB
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Millisecond):
				}
				if _, err := srv.Swap(next); err != nil {
					t.Error(err)
					return
				}
				if next == mB {
					next = mA
				} else {
					next = mB
				}
			}
		}()
		counts := runVerifiedLoad(t, srv, DatasetWorkload(mA.ds), byGen,
			16, 300*time.Millisecond, 150*time.Millisecond)
		close(stop)
		swapWG.Wait()
		st := srv.Stats()
		srv.Close()
		if st.Generation < 2 {
			t.Fatalf("seed %d: no swap happened (gen %d)", seed, st.Generation)
		}
		if completedOf(counts) == 0 {
			t.Fatalf("seed %d: nothing completed under chaos", seed)
		}
	}
}

// TestHedgeRescuesSlowWorkers: with slow-batch injection, hedged
// re-dispatches win often enough to be visible, and every hedged answer
// is still the fault-free answer.
func TestHedgeRescuesSlowWorkers(t *testing.T) {
	ds := clusteredDS(16, 2000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 50 * time.Millisecond, // slow != stalled: don't depose
		Hedge:        true, HedgeDelay: time.Millisecond, HedgeBudget: 1, HedgeBurst: 64,
		Chaos: &ChaosProfile{Seed: 3, SlowRate: 0.3, SlowFor: 10 * time.Millisecond},
	})
	counts := runVerifiedLoad(t, srv, DatasetWorkload(ds), func(uint64) *Model { return m },
		8, 250*time.Millisecond, 0)
	st := srv.Stats()
	srv.Close()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges=%d wins=%d under 30%% slow batches, want both > 0", st.Hedges, st.HedgeWins)
	}
	if counts[OutcomeHedgeWon] == 0 {
		t.Error("no client saw a hedge-won outcome")
	}
}

// TestHedgeRescuesDroppedResponses: a dropped response would strand its
// caller forever; the hedge is what turns it into mere latency.
func TestHedgeRescuesDroppedResponses(t *testing.T) {
	ds := clusteredDS(17, 1500, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		Hedge: true, HedgeDelay: time.Millisecond, HedgeBudget: 1, HedgeBurst: 64,
		Chaos: &ChaosProfile{Seed: 4, DropRate: 0.2},
	})
	counts := runVerifiedLoad(t, srv, DatasetWorkload(ds), func(uint64) *Model { return m },
		8, 250*time.Millisecond, 100*time.Millisecond)
	st := srv.Stats()
	srv.Close()
	if st.Dropped == 0 {
		t.Fatal("no response was dropped at DropRate 0.2")
	}
	if c, n := completedOf(counts), issuedOf(counts); float64(c) < 0.9*float64(n) {
		t.Errorf("availability %d/%d with hedging against drops", c, n)
	}
}

// TestHedgeBudgetBounds pins that hedging cannot amplify overload: the
// token bucket caps dispatches at primaries·HedgeBudget + HedgeBurst,
// and once the bucket drains further hedge attempts are denied.
func TestHedgeBudgetBounds(t *testing.T) {
	ds := clusteredDS(18, 1500, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	const budget, burst = 0.05, 4
	srv := NewServer(m, Options{
		Workers: 2, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 100 * time.Millisecond,
		Hedge:        true, HedgeDelay: 500 * time.Microsecond, HedgeBudget: budget, HedgeBurst: burst,
		Chaos: &ChaosProfile{Seed: 5, SlowRate: 1, SlowFor: 3 * time.Millisecond},
	})
	runVerifiedLoad(t, srv, DatasetWorkload(ds), func(uint64) *Model { return m },
		4, 250*time.Millisecond, 0)
	st := srv.Stats()
	srv.Close()
	primaries := st.Completed - st.HedgeWins
	bound := uint64(float64(primaries)*budget) + burst
	if st.Hedges > bound {
		t.Fatalf("%d hedges exceed the budget bound %d (%d primaries)", st.Hedges, bound, primaries)
	}
	if st.HedgeDenied == 0 {
		t.Error("budget never denied a hedge despite every batch being slow")
	}
}

// TestBrownoutShedsByPriority drives the health ladder directly (the
// EWMA setters are in-package) and pins the degradation contract:
// Degraded sheds Low, BrownedOut sheds everything below High, recovery
// restores everyone — and the shed error is ErrOverloaded to callers.
func TestBrownoutShedsByPriority(t *testing.T) {
	ds := clusteredDS(19, 1000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{
		Workers: 2, BatchCap: 8, MaxQueueDelay: 10 * time.Millisecond,
		SupervisorInterval: time.Hour, // drive the ladder by hand
	})
	defer srv.Close()
	q := ds.At(0)

	// Saturate the EWMA past the brownout threshold (0.9 * 10ms).
	for i := 0; i < 200; i++ {
		srv.observeQueueDelay(20 * time.Millisecond)
	}
	srv.updateHealth()
	if h := srv.HealthState(); h != HealthBrownedOut {
		t.Fatalf("health %v after saturating the queue delay, want browned-out", h)
	}
	if _, err := srv.AssignPriority(context.Background(), q, PriorityLow); !errors.Is(err, ErrShedBrownout) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low priority in brownout: %v, want ErrShedBrownout (an ErrOverloaded)", err)
	}
	if _, err := srv.AssignPriority(context.Background(), q, PriorityNormal); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("normal priority in brownout: %v, want ErrOverloaded", err)
	}
	if a, err := srv.AssignPriority(context.Background(), q, PriorityHigh); err != nil {
		t.Fatalf("high priority must be served in brownout: %v", err)
	} else if want := m.Assign(q); a.Cluster != want.Cluster {
		t.Fatalf("brownout answer %d != direct %d", a.Cluster, want.Cluster)
	}

	// Decay back to Degraded: Low still shed, Normal served again.
	for srv.queueDelayEWMA() >= time.Duration(0.9*float64(10*time.Millisecond))/2 {
		srv.decayQueueDelay()
	}
	srv.updateHealth()
	if h := srv.HealthState(); h != HealthDegraded {
		t.Fatalf("health %v after partial decay, want degraded", h)
	}
	if _, err := srv.AssignPriority(context.Background(), q, PriorityLow); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low priority while degraded: %v, want ErrOverloaded", err)
	}
	if _, err := srv.AssignPriority(context.Background(), q, PriorityNormal); err != nil {
		t.Fatalf("normal priority while degraded: %v", err)
	}

	// Full decay: healthy, everyone served.
	for srv.queueDelayEWMA() >= time.Duration(0.5*float64(10*time.Millisecond))/2 {
		srv.decayQueueDelay()
	}
	srv.updateHealth()
	if h := srv.HealthState(); h != HealthHealthy {
		t.Fatalf("health %v after full decay, want healthy", h)
	}
	if _, err := srv.AssignPriority(context.Background(), q, PriorityLow); err != nil {
		t.Fatalf("low priority when healthy: %v", err)
	}
	if st := srv.Stats(); st.ShedPriority == 0 || st.HealthTransitions < 2 {
		t.Errorf("shedPriority=%d transitions=%d", st.ShedPriority, st.HealthTransitions)
	}
}

// TestDrainServesBacklog: Drain with a generous deadline answers every
// admitted query (returns 0 failed) while refusing new admissions.
func TestDrainServesBacklog(t *testing.T) {
	ds := clusteredDS(20, 1500, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	srv := NewServer(m, Options{Workers: 2, BatchCap: 4, QueueCap: 256, MaxQueueDelay: -1})
	w := DatasetWorkload(ds)

	const inflight = 64
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Assign(context.Background(), w.At(i)); err != nil {
				errs <- err
			}
		}(i)
	}
	for srv.admitted.Load() < inflight { // every client past admission
		time.Sleep(100 * time.Microsecond)
	}
	if failed := srv.Drain(time.Second); failed != 0 {
		t.Fatalf("drain failed %d queries with a generous deadline", failed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query during graceful drain: %v", err)
	}
	if _, err := srv.Assign(context.Background(), w.At(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("assign after drain: %v, want ErrClosed", err)
	}
	// Idempotent with Close.
	srv.Close()
	if failed := srv.Drain(time.Second); failed != 0 {
		t.Fatalf("second drain reported %d", failed)
	}
}

// TestDrainDeadline: a backlog that cannot finish by the deadline is
// failed with ErrClosed — drain bounds shutdown time, it does not hang.
func TestDrainDeadline(t *testing.T) {
	ds := clusteredDS(21, 1000, 2, 4, 4)
	m, _ := mustFreeze(t, ds, dbscan.Params{Eps: 8, MinPts: 5})
	// Every batch stalls for 300ms, so a short drain cannot clear the
	// backlog; supervision is off so the stall is never cut short.
	srv := NewServer(m, Options{
		Workers: 1, BatchCap: 1, QueueCap: 64, MaxQueueDelay: -1, StallTimeout: -1,
		Chaos: &ChaosProfile{Seed: 6, StallRate: 1, StallFor: 300 * time.Millisecond},
	})
	w := DatasetWorkload(ds)
	const inflight = 8
	var wg sync.WaitGroup
	var closedErrs atomic.Uint64
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Assign(context.Background(), w.At(i)); errors.Is(err, ErrClosed) {
				closedErrs.Add(1)
			}
		}(i)
	}
	for srv.admitted.Load() < inflight { // every client past admission
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	failed := srv.Drain(10 * time.Millisecond)
	if failed == 0 {
		t.Fatal("drain under a stalled worker reported 0 failures")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("drain took %v, deadline was 10ms", elapsed)
	}
	wg.Wait()
	if closedErrs.Load() == 0 {
		t.Error("no stranded client saw ErrClosed")
	}
	if st := srv.Stats(); st.ClosedInFlight == 0 {
		t.Error("ClosedInFlight not counted")
	}
}
