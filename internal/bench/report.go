package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// The bench registry: every benchmark beside the paper experiments is
// one named entry, run through one code path. A bench returns its
// result body plus named gates; writeReport alone owns the file format
// (the Envelope) and the gate policy (write first, then fail on any
// failed gate), so a failing run still leaves its evidence on disk.

// The clocks a bench's figures can be on. Wall-clock benches measure
// this host and are recorded at GOMAXPROCS=1; simulated-clock benches
// price metered work through the calibrated cost model and are a pure
// function of their configuration.
const (
	ClockWall      = "wall"
	ClockSimulated = "simulated"
)

// Config is the one set of knobs every bench takes. Zero values mean
// the bench's own default.
type Config struct {
	// Points sizes the bench's dataset.
	Points int
	// Seed is the bench's fault, chaos, mutation or sampling seed. The
	// multi-seed benches (faults, storage) run only this seed when it
	// is set.
	Seed uint64
	// Smoke shrinks the run to the seconds-long CI configuration.
	Smoke bool
}

// Gate is one named pass/fail check on a bench's result.
type Gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Report is what a bench returns: how it measured, what it found, and
// the checks its findings must pass.
type Report struct {
	Method string
	Result any
	Gates  []Gate
}

// gate records a named check with a formatted detail line.
func (r *Report) gate(name string, pass bool, format string, args ...any) {
	r.Gates = append(r.Gates, Gate{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Envelope is the BENCH_<name>.json format every bench shares: the
// bench, its clock and method, the host it ran on, its gates, and the
// bench-specific result body.
type Envelope struct {
	Bench      string `json:"bench"`
	Clock      string `json:"clock"`
	Method     string `json:"method"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Gates      []Gate `json:"gates"`
	Result     any    `json:"result"`
}

// Bench is one registry entry.
type Bench struct {
	Name  string
	Clock string
	Run   func(w io.Writer, c Config) (Report, error)
}

// Benches returns the registry in `-bench all` order.
func Benches() []Bench {
	return []Bench{
		{"kdtree", ClockWall, runKDBench},
		{"faults", ClockSimulated, runFaultBench},
		{"storage", ClockSimulated, runStorageBench},
		{"serve", ClockWall, runServeBench},
		{"chaos", ClockWall, runChaosBench},
		{"partition", ClockSimulated, runPartBench},
		{"merge", ClockSimulated, runMergeBench},
		{"knn", ClockWall, runKNNBench},
		{"live", ClockWall, runLiveBench},
	}
}

// traceBenchName is the one bench outside the envelope: it writes the
// Perfetto trace and metrics exports of a traced job, not a report,
// and `all` does not include it.
const traceBenchName = "trace"

// parseBenches resolves a comma-separated list of bench names, or
// "all", against the registry.
func parseBenches(list string) ([]string, error) {
	known := map[string]bool{traceBenchName: true}
	var all []string
	for _, b := range Benches() {
		known[b.Name] = true
		all = append(all, b.Name)
	}
	if list == "all" {
		return all, nil
	}
	var names []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("bench: unknown bench %q (have %s, %s, or all)",
				name, strings.Join(all, ", "), traceBenchName)
		}
		names = append(names, name)
	}
	return names, nil
}

// RunBenches runs the named benches (see parseBenches) in order,
// writing each report to dir, and stops at the first error or failed
// gate.
func RunBenches(w io.Writer, list string, c Config, dir string) error {
	names, err := parseBenches(list)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	registry := map[string]Bench{}
	for _, b := range Benches() {
		registry[b.Name] = b
	}
	for _, name := range names {
		fmt.Fprintf(w, "=== bench %s\n", name)
		if name == traceBenchName {
			if err := runTraceBench(w, dir, c.Points); err != nil {
				return fmt.Errorf("trace bench: %w", err)
			}
			continue
		}
		b := registry[name]
		rep, err := b.Run(w, c)
		if err != nil {
			return fmt.Errorf("%s bench: %w", name, err)
		}
		if err := writeReport(w, dir, b, rep); err != nil {
			return err
		}
	}
	return nil
}

// writeReport wraps rep in the Envelope, writes it to
// dir/BENCH_<name>.json, prints the gates, and only then returns an
// error naming every failed gate.
func writeReport(w io.Writer, dir string, b Bench, rep Report) error {
	gates := rep.Gates
	if gates == nil {
		gates = []Gate{}
	}
	data, err := json.MarshalIndent(Envelope{
		Bench:      b.Name,
		Clock:      b.Clock,
		Method:     rep.Method,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Gates:      gates,
		Result:     rep.Result,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+b.Name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	var failed []string
	for _, g := range gates {
		status := "pass"
		if !g.Pass {
			status = "FAIL"
			failed = append(failed, g.Name+": "+g.Detail)
		}
		fmt.Fprintf(w, "gate %s %s: %s\n", status, g.Name, g.Detail)
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("%s bench: %d gate(s) failed: %s", b.Name, len(failed), strings.Join(failed, "; "))
	}
	return nil
}
