package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs one registered bench through RunBenches into a fresh
// directory and decodes the envelope it wrote, its result body into T.
func runBench[T any](t *testing.T, name string, c Config) (Envelope, *T, string) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunBenches(&out, name, c, dir); err != nil {
		t.Fatalf("%s bench: %v\noutput:\n%s", name, err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	res := new(T)
	env := Envelope{Result: res}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return env, res, out.String()
}

// gateNames lists an envelope's gates by name.
func gateNames(env Envelope) map[string]bool {
	names := map[string]bool{}
	for _, g := range env.Gates {
		names[g.Name] = true
	}
	return names
}

// TestCommittedReports checks every committed BENCH_*.json at the
// repository root: each belongs to a registered bench, carries every
// envelope field, names the registry's clock, records a wall-clock
// bench at GOMAXPROCS=1, and has every gate passing.
func TestCommittedReports(t *testing.T) {
	registry := map[string]Bench{}
	for _, b := range Benches() {
		registry[b.Name] = b
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		b, ok := registry[name]
		if !ok {
			t.Errorf("%s: no registered bench %q", path, name)
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, k := range []string{"bench", "clock", "method", "goos", "goarch", "gomaxprocs", "num_cpu", "gates", "result"} {
			if _, ok := fields[k]; !ok {
				t.Errorf("%s: envelope field %q missing", path, k)
			}
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if env.Bench != name || env.Clock != b.Clock || env.Method == "" ||
			env.GoOS == "" || env.GoArch == "" || env.GOMAXPROCS < 1 || env.NumCPU < 1 || env.Result == nil {
			t.Errorf("%s: incomplete envelope: bench %q clock %q gomaxprocs %d num_cpu %d",
				path, env.Bench, env.Clock, env.GOMAXPROCS, env.NumCPU)
		}
		if env.Clock == ClockWall && env.GOMAXPROCS != 1 {
			t.Errorf("%s: wall-clock bench recorded at GOMAXPROCS=%d, want 1", path, env.GOMAXPROCS)
		}
		for _, g := range env.Gates {
			if g.Name == "" || !g.Pass {
				t.Errorf("%s: gate %q did not pass: %s", path, g.Name, g.Detail)
			}
		}
	}
	for name := range registry {
		if !seen[name] {
			t.Errorf("no committed BENCH_%s.json", name)
		}
	}
}

// TestSimulatedReportsReproduce reruns every simulated-clock bench at
// its full default configuration and checks that the result body equals
// the committed BENCH_<name>.json's: those figures are a pure function
// of the code, so a change that moves one must re-record the report.
func TestSimulatedReportsReproduce(t *testing.T) {
	for _, b := range Benches() {
		if b.Clock != ClockSimulated {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			if err := RunBenches(&out, b.Name, Config{}, dir); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, out.String())
			}
			file := "BENCH_" + b.Name + ".json"
			want := resultLines(t, filepath.Join("..", "..", file))
			got := resultLines(t, filepath.Join(dir, file))
			for i := 0; i < len(want) || i < len(got); i++ {
				if i >= len(want) || i >= len(got) || want[i] != got[i] {
					t.Fatalf("%s does not reproduce: result line %d is %q, committed %q; re-record it with `benchrunner -bench %s -out .`",
						file, i+1, lineAt(got, i), lineAt(want, i), b.Name)
				}
			}
		})
	}
}

// resultLines reads a report's result body and returns it as indented
// JSON lines with object keys sorted.
func resultLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Result any }
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	norm, err := json.MarshalIndent(env.Result, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(norm), "\n")
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return strings.TrimSpace(lines[i])
	}
	return "(end)"
}

func TestParseBenches(t *testing.T) {
	all, err := parseBenches("all")
	if err != nil || len(all) != len(Benches()) {
		t.Fatalf("all = %v, %v", all, err)
	}
	for _, name := range all {
		if name == traceBenchName {
			t.Fatal("all includes the trace exporter")
		}
	}
	got, err := parseBenches("knn, trace")
	if err != nil || len(got) != 2 || got[0] != "knn" || got[1] != "trace" {
		t.Fatalf("knn, trace = %v, %v", got, err)
	}
	for _, bad := range []string{"kd", "", "serve,,live"} {
		if _, err := parseBenches(bad); err == nil {
			t.Errorf("parseBenches(%q) accepted", bad)
		}
	}
}

// TestWriteReportFailsAfterWriting pins the gate policy: a failed gate
// is an error naming it, returned only after the report is on disk.
func TestWriteReportFailsAfterWriting(t *testing.T) {
	dir := t.TempDir()
	rep := Report{Method: "m", Result: map[string]int{"x": 1}}
	rep.gate("fine", true, "ok")
	rep.gate("broken", false, "value %d", 7)
	var out bytes.Buffer
	err := writeReport(&out, dir, Bench{Name: "fake", Clock: ClockWall}, rep)
	if err == nil || !strings.Contains(err.Error(), "broken: value 7") || strings.Contains(err.Error(), "fine") {
		t.Fatalf("error %v, want one naming only the failed gate", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fake.json"))
	if err != nil {
		t.Fatalf("failed report not written: %v", err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Bench != "fake" || env.Clock != ClockWall || len(env.Gates) != 2 || env.Gates[1].Pass {
		t.Fatalf("envelope %+v", env)
	}
}
