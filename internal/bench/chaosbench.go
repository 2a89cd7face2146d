package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"sparkdbscan/internal/serve"
)

// The chaos benchmark measures the resilience layer: one clean arm for
// baseline, then one arm per injected fault kind, each driven by the
// same seeded ChaosProfile discipline the tests use. Every arm reports
// the outcome taxonomy and the supervision/hedging counters, and the
// single-fault arms carry gates named after the arm:
//
//   - availability >= 99% under worker kills (supervised), stalls and
//     dropped responses;
//   - hedging improves p99 under slow workers without exceeding the
//     retry budget's hard bound (primaries·HedgeBudget + HedgeBurst);
//   - under overload-driven brownout, high-priority traffic fares at
//     least as well as low-priority traffic and the health ladder
//     actually engaged.
//
// The contrast arm (kills with supervision off) has no gate: it exists
// to show the availability collapse the supervisor prevents.

// ChaosArm is one benchmark arm's row in BENCH_chaos.json.
type ChaosArm struct {
	Name  string `json:"name"`
	Fault string `json:"fault"`

	Issued       uint64  `json:"issued"`
	Completed    uint64  `json:"completed"`
	HedgeWon     uint64  `json:"hedge_won"`
	Shed         uint64  `json:"shed"`
	Canceled     uint64  `json:"canceled"`
	Panicked     uint64  `json:"panicked"`
	Availability float64 `json:"availability"`

	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`

	WorkerDeaths      uint64 `json:"worker_deaths"`
	WorkerStalls      uint64 `json:"worker_stalls"`
	Respawns          uint64 `json:"respawns"`
	Dropped           uint64 `json:"dropped"`
	Hedges            uint64 `json:"hedges"`
	HedgeWins         uint64 `json:"hedge_wins"`
	HedgeDenied       uint64 `json:"hedge_denied"`
	ShedPriority      uint64 `json:"shed_priority"`
	HealthTransitions uint64 `json:"health_transitions"`
}

// ChaosBenchResult is the BENCH_chaos.json result body.
type ChaosBenchResult struct {
	Smoke bool `json:"smoke"`

	Points int     `json:"points"`
	Dim    int     `json:"dim"`
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minpts"`

	// Seed drives every arm's ChaosProfile; ScheduleDigest is an FNV-1a
	// hash of a canonical rendered fault schedule under this seed —
	// byte-identical schedule ⇒ identical digest across runs, the
	// determinism artifact the acceptance criteria ask for.
	Seed           uint64 `json:"chaos_seed"`
	ScheduleDigest string `json:"schedule_digest"`

	Arms []ChaosArm `json:"arms"`
}

func armFromLoad(name, fault string, rep serve.LoadReport, st serve.Stats) ChaosArm {
	return ChaosArm{
		Name:  name,
		Fault: fault,

		Issued:       rep.Issued,
		Completed:    rep.Completed,
		HedgeWon:     rep.HedgeWon,
		Shed:         rep.Shed,
		Canceled:     rep.Canceled,
		Panicked:     rep.Panicked,
		Availability: rep.Availability,

		P50us:  usQ(st.LatencyP50),
		P99us:  usQ(st.LatencyP99),
		P999us: usQ(st.LatencyP999),

		WorkerDeaths:      st.WorkerDeaths,
		WorkerStalls:      st.WorkerStalls,
		Respawns:          st.Respawns,
		Dropped:           st.Dropped,
		Hedges:            st.Hedges,
		HedgeWins:         st.HedgeWins,
		HedgeDenied:       st.HedgeDenied,
		ShedPriority:      st.ShedPriority,
		HealthTransitions: st.HealthTransitions,
	}
}

// runChaosBench benchmarks the resilience layer under seeded fault
// injection (c.Seed, default 53). Smoke shrinks the dataset and arm
// durations to the CI configuration.
func runChaosBench(w io.Writer, c Config) (Report, error) {
	points, seed, smoke := c.Points, c.Seed, c.Smoke
	if points <= 0 {
		points = 20_000
	}
	if seed == 0 {
		seed = 53
	}
	const fullArmDur = 400 * time.Millisecond
	armDur := fullArmDur
	if smoke {
		if points > 4000 {
			points = 4000
		}
		armDur = 150 * time.Millisecond
	}
	ds, tree, res, err := servingClustering(points)
	if err != nil {
		return Report{}, err
	}
	model, err := serve.Freeze(ds, res.Labels, res.Core, tree, servingParams)
	if err != nil {
		return Report{}, err
	}
	workload := serve.DatasetWorkload(ds)

	canonical := serve.ChaosProfile{Seed: seed, KillRate: 0.05, StallRate: 0.05, SlowRate: 0.1, PanicRate: 0.1}
	digest := fnv.New64a()
	digest.Write([]byte(canonical.Schedule(4, 256)))

	report := &ChaosBenchResult{
		Smoke:          smoke,
		Points:         ds.Len(),
		Dim:            servingDim,
		Eps:            servingParams.Eps,
		MinPts:         servingParams.MinPts,
		Seed:           seed,
		ScheduleDigest: fmt.Sprintf("fnv1a:%016x", digest.Sum64()),
	}

	// runArm drives one load against a fresh server, for armDur unless
	// load sets its own duration.
	runArm := func(name, fault string, opts serve.Options, load serve.LoadOptions) ChaosArm {
		srv := serve.NewServer(model, opts)
		if load.Duration == 0 {
			load.Duration = armDur
		}
		rep := serve.RunLoad(srv, workload, load)
		st := srv.Stats()
		srv.Close()
		return armFromLoad(name, fault, rep, st)
	}

	rep := Report{
		Method: "closed-loop load per arm against a fresh server, one injected fault kind per arm " +
			"(same seeded deterministic schedule discipline as the tests); availability = completed/issued; " +
			"latency quantiles from the server's enqueue-to-response histogram",
		Result: report,
	}

	const availabilityFloor = 0.99

	// Baseline: no faults.
	clean := runArm("clean", "none", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
	}, serve.LoadOptions{Clients: 8})
	report.Arms = append(report.Arms, clean)

	// Worker kills with supervision: deaths are respawned, the service
	// stays up, only the killed batches pay (with ErrPanicked).
	kill := runArm("worker-kill", "KillRate 0.004/batch", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 10 * time.Millisecond, SupervisorInterval: time.Millisecond,
		Chaos: &serve.ChaosProfile{Seed: seed, KillRate: 0.004},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	rep.gate(kill.Name, kill.Availability >= availabilityFloor && kill.WorkerDeaths > 0,
		"availability %.4f (floor %.2f), deaths %d (want > 0)",
		kill.Availability, availabilityFloor, kill.WorkerDeaths)
	report.Arms = append(report.Arms, kill)

	// The contrast arm: same kills, supervision off — dead shards
	// starve, queries into them time out, availability collapses.
	killNoSup := runArm("worker-kill-nosup", "KillRate 0.004/batch, no supervisor", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: -1,
		Chaos:        &serve.ChaosProfile{Seed: seed, KillRate: 0.004},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 25 * time.Millisecond})
	report.Arms = append(report.Arms, killNoSup)

	// Stalls: the supervisor deposes stuck workers; the stalled batch is
	// still answered (late, correctly) so availability holds.
	stall := runArm("worker-stall", "StallRate 0.01/batch, 20ms", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 5 * time.Millisecond, SupervisorInterval: time.Millisecond,
		Chaos: &serve.ChaosProfile{Seed: seed, StallRate: 0.01, StallFor: 20 * time.Millisecond},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	rep.gate(stall.Name, stall.Availability >= availabilityFloor && stall.WorkerStalls > 0,
		"availability %.4f (floor %.2f), stalls %d (want > 0)",
		stall.Availability, availabilityFloor, stall.WorkerStalls)
	report.Arms = append(report.Arms, stall)

	// Slow workers, hedging off vs on: the pair that shows what hedged
	// requests buy (p99) and what they cost (bounded re-dispatches).
	// These arms run OPEN loop at a fixed offered rate: in a closed
	// loop the fault's share of traffic depends on how fast the host
	// turns batches around, so the p99 comparison would measure the
	// machine; at a fixed arrival rate ~SlowRate of requests land in a
	// slow batch on any host, and the only question is whether hedging
	// moves them out of the tail. The pair keeps the full arm duration
	// even in smoke: ~800 requests put p99 eight samples from the
	// worst, so a few host-scheduler stalls near the 20 ms slow delay
	// cannot decide the gate on their own.
	const slowQPS = 2000
	slowChaos := func() *serve.ChaosProfile {
		return &serve.ChaosProfile{Seed: seed, SlowRate: 0.05, SlowFor: 20 * time.Millisecond}
	}
	slowNoHedge := runArm("slow-nohedge", "SlowRate 0.05/batch, 20ms", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 50 * time.Millisecond, // slow != stalled
		Chaos:        slowChaos(),
	}, serve.LoadOptions{QPS: slowQPS, RequestTimeout: 100 * time.Millisecond, Duration: fullArmDur})
	report.Arms = append(report.Arms, slowNoHedge)

	// Budget sized so the ~5% hedge demand never runs dry (a denied
	// hedge waits out the full stall and lands in the p99) while the
	// bound primaries·budget + burst stays a real ceiling.
	const hedgeBudget, hedgeBurst = 0.5, 128
	slowHedge := runArm("slow-hedge", "SlowRate 0.05/batch, 20ms, hedged", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		StallTimeout: 50 * time.Millisecond,
		Hedge:        true, HedgeDelay: time.Millisecond,
		HedgeBudget: hedgeBudget, HedgeBurst: hedgeBurst,
		Chaos: slowChaos(),
	}, serve.LoadOptions{QPS: slowQPS, RequestTimeout: 100 * time.Millisecond, Duration: fullArmDur})
	hedgeBound := uint64(float64(slowHedge.Completed-slowHedge.HedgeWon)*hedgeBudget) + hedgeBurst
	rep.gate(slowHedge.Name,
		slowHedge.P99us < slowNoHedge.P99us && slowHedge.HedgeWins > 0 && slowHedge.Hedges <= hedgeBound,
		"p99 %.0fµs vs unhedged %.0fµs (want <), hedge wins %d (want > 0), hedges %d (bound %d)",
		slowHedge.P99us, slowNoHedge.P99us, slowHedge.HedgeWins, slowHedge.Hedges, hedgeBound)
	report.Arms = append(report.Arms, slowHedge)

	// Dropped responses: without a hedge the caller would hang to its
	// deadline; with one, a drop costs a hedge delay.
	drop := runArm("drop-hedge", "DropRate 0.01/response, hedged", serve.Options{
		Workers: 4, BatchCap: 8, MaxQueueDelay: -1,
		Hedge: true, HedgeDelay: time.Millisecond,
		HedgeBudget: hedgeBudget, HedgeBurst: hedgeBurst,
		Chaos: &serve.ChaosProfile{Seed: seed, DropRate: 0.01},
	}, serve.LoadOptions{Clients: 8, RequestTimeout: 100 * time.Millisecond})
	rep.gate(drop.Name, drop.Availability >= availabilityFloor && drop.Dropped > 0,
		"availability %.4f (floor %.2f), drops %d (want > 0)",
		drop.Availability, availabilityFloor, drop.Dropped)
	report.Arms = append(report.Arms, drop)

	// Brownout: every batch slow, and more high-priority clients alone
	// (12) than the pool has batch slots (2 workers x 4). The queue of
	// high-priority work never empties, so the queue-delay EWMA crosses
	// the ladder's degrade threshold (half of MaxQueueDelay) and stays
	// past it on any host, however the scheduler
	// interleaves the clients; an overload that needed the low-priority
	// load to keep the queue full let CPU contention decide whether the
	// ladder engaged. The ladder must engage and trade low-priority work
	// away first.
	{
		srv := serve.NewServer(model, serve.Options{
			Workers: 2, BatchCap: 4, MaxQueueDelay: 5 * time.Millisecond,
			SupervisorInterval: time.Millisecond, StallTimeout: 50 * time.Millisecond,
			Chaos: &serve.ChaosProfile{Seed: seed, SlowRate: 1, SlowFor: 8 * time.Millisecond},
		})
		var lowRep, highRep serve.LoadReport
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			lowRep = serve.RunLoad(srv, workload, serve.LoadOptions{
				Clients: 8, Duration: armDur,
				RequestTimeout: 50 * time.Millisecond, Priority: serve.PriorityLow,
			})
		}()
		go func() {
			defer wg.Done()
			highRep = serve.RunLoad(srv, workload, serve.LoadOptions{
				Clients: 12, Duration: armDur,
				RequestTimeout: 50 * time.Millisecond, Priority: serve.PriorityHigh,
			})
		}()
		wg.Wait()
		st := srv.Stats()
		srv.Close()
		low := armFromLoad("brownout-low", "SlowRate 1/batch 8ms, 8 clients, PriorityLow", lowRep, st)
		high := armFromLoad("brownout-high", "SlowRate 1/batch 8ms, 12 clients, PriorityHigh", highRep, st)
		rep.gate(high.Name,
			high.Availability >= low.Availability && st.HealthTransitions > 0,
			"high-pri availability %.4f vs low-pri %.4f (want >=), transitions %d (want > 0)",
			high.Availability, low.Availability, st.HealthTransitions)
		report.Arms = append(report.Arms, low, high)
	}

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "arm\tavail %\tp50 µs\tp99 µs\tdeaths\trespawns\tstalls\thedges\twins\tdenied\tdrops\tshed pri\thealth Δ")
	for _, a := range report.Arms {
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			a.Name, 100*a.Availability, a.P50us, a.P99us,
			a.WorkerDeaths, a.Respawns, a.WorkerStalls,
			a.Hedges, a.HedgeWins, a.HedgeDenied, a.Dropped,
			a.ShedPriority, a.HealthTransitions)
	}
	if err := tw.Flush(); err != nil {
		return Report{}, err
	}
	fmt.Fprintf(w, "chaos seed %d, schedule digest %s\n", report.Seed, report.ScheduleDigest)
	return rep, nil
}
