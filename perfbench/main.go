// Command perfbench is the repository's wall-clock benchmark. One run
// executes one named workload in-process under a seed, checks every
// output for correctness, and prints as its last line of standard
// output a JSON object with every end-to-end metric of BENCHMARK.json
// (--trace 0) or every per-layer metric of it, from a separate traced
// run (--trace 1). See README.md for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median. The first set-up of a process also grows the heap, so
// five leave the median to the warm ones.
const setupReps = 5

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"offline":    offline,
	"serve-read": serveRead,
	"live-churn": liveChurn,
	"embed-knn":  embedKNN,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope records where and how a run was made.
type envelope struct {
	Host       string `json:"host"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// run is the state one workload run shares with its arms.
type run struct {
	seed    uint64
	seconds time.Duration
	procs   int
	trace   bool
	// rec records spans in the traced run and is nil otherwise.
	rec       *recorder
	metrics   map[string]metric
	attempted int64
	failed    int64
}

// put records a metric of the run's kind (end-to-end or per-layer).
func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check counts one operation and, when it was wrong, one failure.
func (r *run) check(ok bool, format string, args ...any) {
	r.count(1, 0)
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts one failure of an operation already counted as
// attempted.
func (r *run) fail(format string, args ...any) {
	r.failed++
	logf("FAILED: "+format, args...)
}

// putQuantile records percentile p of lat in microseconds, or counts a
// failure when the sample is too small for the percentile rule.
func (r *run) putQuantile(name string, lat latencies, p float64) {
	v, err := lat.quantileUS(p)
	if err != nil {
		r.fail("%s: %v", name, err)
		return
	}
	r.put(name, "us", v)
}

// count adds attempted operations and failures.
func (r *run) count(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

// setUp runs f setupReps times and reports the median wall time as
// setup_s (an end-to-end metric, so not in the traced run). f must
// leave its outputs in place; the last repetition's outputs are the
// ones measured.
func (r *run) setUp(f func(s spanRef) error) error {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Collect the previous repetition's outputs first, so peak memory
		// does not depend on when the collector happened to run.
		runtime.GC()
		var err error
		d := r.rec.do("setup", spanRef{}, func(s spanRef) { err = f(s) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	if !r.trace {
		r.put("setup_s", "s", median(times))
	}
	return nil
}

// repeat calls f until the run's time is spent. The first repetition
// always runs; a later one starts only if the previous one's duration
// still fits, so a run measures about --seconds.
func (r *run) repeat(f func() error) error {
	start := time.Now()
	var last time.Duration
	for rep := 0; rep == 0 || time.Since(start)+last <= r.seconds; rep++ {
		// Start every repetition from a collected heap, so one
		// repetition's garbage is not collected on the next one's time.
		runtime.GC()
		t := time.Now()
		if err := f(); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// part returns frac of the run's measuring time, but at least atLeast,
// so an arm keeps enough samples for its percentiles at any --seconds.
func (r *run) part(frac float64, atLeast time.Duration) time.Duration {
	return max(time.Duration(frac*float64(r.seconds)), atLeast)
}

// layerMedian reports the median duration of the spans named name as
// the per-layer metric metricName, in seconds.
func (r *run) layerMedian(metricName, spanName string) {
	if d := r.rec.durations(spanName); len(d) > 0 {
		r.put(metricName, "s", median(d))
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if err := mainErr(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: offline, serve-read, live-churn or embed-knn")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 12, "how long the run measures")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}

	env := envelope{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
	}
	env.Host, _ = os.Hostname() // provenance only; empty on failure
	if env.Commit == "" {
		env.Commit = "unknown"
	}
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	logf("envelope %s", line)

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		procs:   env.GOMAXPROCS,
		trace:   env.Trace,
		metrics: make(map[string]metric),
	}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := wl(r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if !r.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.put("peak_rss_mb", "MB", rss)
	} else {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := r.rec.write(path, *name, env); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		logf("spans written to %s", path)
	}
	if err := man.complete(r.metrics, r.trace); err != nil {
		return err
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
