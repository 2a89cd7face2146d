package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDatagenSingleDataset(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunDatagen([]string{"-dataset", "r10k", "-scale", "0.05", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "r10k.txt")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("output file missing: %v", err)
	}
	if !strings.Contains(out.String(), "500 points") {
		t.Fatalf("unexpected summary: %s", out.String())
	}
}

func TestDatagenAllBinary(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunDatagen([]string{"-dataset", "all", "-scale", "0.001", "-format", "bin", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c10k", "c100k", "r10k", "r100k", "r1m"} {
		if _, err := os.Stat(filepath.Join(dir, name+".bin")); err != nil {
			t.Fatalf("%s.bin missing", name)
		}
	}
}

func TestDatagenErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunDatagen([]string{"-format", "xml"}, &out); err == nil {
		t.Fatal("bad format accepted")
	}
	if err := RunDatagen([]string{"-scale", "2"}, &out); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := RunDatagen([]string{"-dataset", "nope", "-out", t.TempDir()}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDBSCANSequentialAndDistributed(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")

	// Sequential.
	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	seq := out.String()
	if !strings.Contains(seq, "clusters: 2") {
		t.Fatalf("sequential output:\n%s", seq)
	}

	// Distributed, with labels written.
	labelFile := filepath.Join(dir, "labels.txt")
	out.Reset()
	err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-out", labelFile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	dist := out.String()
	if !strings.Contains(dist, "partial clusters:") || !strings.Contains(dist, "executors") {
		t.Fatalf("distributed output:\n%s", dist)
	}
	raw, err := os.ReadFile(labelFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2000 {
		t.Fatalf("%d labels, want 2000", len(lines))
	}

	// Paper-fidelity and spatial variants run too.
	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-paper"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-spatial"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestDBSCANErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunDBSCAN([]string{}, &out); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := RunDBSCAN([]string{"-in", "/nonexistent/file.txt"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBenchList(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig5", "fig6a", "fig7", "fig8ef"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list missing %s:\n%s", id, out.String())
		}
	}
}

func TestBenchRunsExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-exp", "table1", "-scale", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "r100k") {
		t.Fatalf("table1 output:\n%s", out.String())
	}
}

func TestBenchAllAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	var out bytes.Buffer
	if err := RunBench([]string{"-exp", "all", "-scale", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, id := range []string{"table1", "fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8ab", "fig8cd", "fig8ef"} {
		if !strings.Contains(s, "=== "+id) {
			t.Fatalf("experiment %s missing from -exp all output", id)
		}
	}
}

func TestBenchCommaSeparatedAndErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-exp", "table1, fig6a", "-scale", "0.02"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := RunBench([]string{"-exp", "figX"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := RunBench([]string{"-scale", "0"}, &out); err == nil {
		t.Fatal("bad scale accepted")
	}
	for _, bad := range [][]string{
		{"-bench", "nope"},
		{"-bench", "faults,nope"},
		{"-bench", "faults", "-points", "-5"},
		{"-bench", "faults", "-points", "many"},
		{"-bench", "faults", "-exp", "fig7"},
		{"-bench", "faults", "-scale", "0.5"},
		{"-exp", "table1", "-smoke"},
		{"-points", "800"},
	} {
		if err := RunBench(bad, &out); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestBenchFaultBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_faults.json")
	var out bytes.Buffer
	err := RunBench([]string{"-bench", "faults", "-seed", "11", "-points", "800", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("report missing: %v", err)
	}
	for _, col := range []string{"overhead", "restarts", "blacklist", "identical"} {
		if !strings.Contains(out.String(), col) {
			t.Fatalf("output lacks %q:\n%s", col, out.String())
		}
	}
	if err := RunBench([]string{"-bench", "faults", "-seed", "nope", "-out", dir}, &out); err == nil {
		t.Fatal("bad -seed accepted")
	}
}

func TestDBSCANObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	out.Reset()
	err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-trace", tracePath, "-metrics", metricsPath, "-gantt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "trace written to") || !strings.Contains(s, "metrics written to") {
		t.Fatalf("missing export confirmations:\n%s", s)
	}
	if !strings.Contains(s, "core   0 |") {
		t.Fatalf("-gantt printed no per-core chart:\n%s", s)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) {
		t.Fatal("trace file is not Chrome trace-event JSON")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"critical_path"`, `"stages"`, `"driver_phases"`} {
		if !strings.Contains(string(metrics), key) {
			t.Fatalf("metrics file lacks %s", key)
		}
	}

	// Observability flags need a virtual distributed run.
	if err := RunDBSCAN([]string{"-in", in, "-gantt"}, &out); err == nil {
		t.Fatal("-gantt without -cores accepted")
	}
	if err := RunDBSCAN([]string{"-in", in, "-cores", "4", "-realtime",
		"-trace", tracePath}, &out); err == nil {
		t.Fatal("-trace with -realtime accepted")
	}
}

func TestBenchTraceBench(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	err := RunBench([]string{"-bench", "trace", "-points", "800", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "critical path:") {
		t.Fatalf("tracebench printed no critical path:\n%s", out.String())
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("trace missing: %v", err)
	}
	if _, err := os.Stat(metricsPath); err != nil {
		t.Fatalf("metrics missing: %v", err)
	}
}

func TestDBSCANServeDemo(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")

	// Sequential path hands its core flags to Freeze directly.
	out.Reset()
	err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5", "-serve-demo"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serving demo", "far-away probe -> cluster -1", "p50 latency"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}

	// Distributed path has no core flags; Freeze re-derives them.
	out.Reset()
	err = RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5", "-cores", "4", "-serve-demo"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "serving demo") {
		t.Fatalf("distributed serve demo missing:\n%s", out.String())
	}
}

func TestBenchServeBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_serve.json")
	var out bytes.Buffer
	err := RunBench([]string{"-bench", "serve", "-points", "2000", "-smoke", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("report missing: %v", err)
	}
	for _, col := range []string{"workers", "mean batch", "vs unbatched", "target qps", "shed %"} {
		if !strings.Contains(out.String(), col) {
			t.Fatalf("output lacks %q:\n%s", col, out.String())
		}
	}
}

func TestDBSCANPartitionFlag(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")

	// Both modes must report the same clustering; cell mode must print
	// its shuffle diagnostics instead of a full-dataset broadcast.
	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-partition", "range"}, &out); err != nil {
		t.Fatal(err)
	}
	rangeOut := out.String()
	if !strings.Contains(rangeOut, "partitioning: range") {
		t.Fatalf("range output:\n%s", rangeOut)
	}

	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "25", "-minpts", "5",
		"-cores", "4", "-partition", "cell", "-cellpoints", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	cellOut := out.String()
	for _, want := range []string{"partitioning: cell", "halo replicas", "axes split"} {
		if !strings.Contains(cellOut, want) {
			t.Fatalf("cell output lacks %q:\n%s", want, cellOut)
		}
	}
	for _, line := range []string{"clusters:", "noise:"} {
		r := rangeOut[strings.Index(rangeOut, line):][:20]
		c := cellOut[strings.Index(cellOut, line):][:20]
		if r != c {
			t.Fatalf("modes disagree: %q vs %q", r, c)
		}
	}

	// Cell mode is a distributed construct.
	if err := RunDBSCAN([]string{"-in", in, "-partition", "cell"}, &out); err == nil {
		t.Fatal("cell mode without -cores accepted")
	}
	if err := RunDBSCAN([]string{"-in", in, "-cores", "4", "-partition", "hex"}, &out); err == nil {
		t.Fatal("unknown partition mode accepted")
	}
}

func TestDBSCANMergeWorkersFlag(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.2", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")

	// The merge's driver-core count must not move the clustering, and
	// the summary reports it; the sequential run is the reference.
	var outs []string
	for _, args := range [][]string{
		{"-in", in, "-eps", "25", "-minpts", "5"},
		{"-in", in, "-eps", "25", "-minpts", "5", "-cores", "4"},
		{"-in", in, "-eps", "25", "-minpts", "5", "-cores", "4", "-mergeworkers", "8"},
	} {
		out.Reset()
		if err := RunDBSCAN(args, &out); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.String())
	}
	for i, want := range []string{"", "merge: parallel on 4 driver cores", "merge: parallel on 8 driver cores"} {
		if !strings.Contains(outs[i], want) {
			t.Fatalf("summary %d lacks %q:\n%s", i, want, outs[i])
		}
	}
	lineOf := func(s, prefix string) string {
		rest := s[strings.Index(s, "\n"+prefix)+1:]
		return rest[:strings.IndexByte(rest, '\n')]
	}
	for _, line := range []string{"clusters:", "noise:"} {
		ref := lineOf(outs[0], line)
		for _, s := range outs[1:] {
			if got := lineOf(s, line); got != ref {
				t.Fatalf("distributed run disagrees with sequential: %q vs %q", got, ref)
			}
		}
	}

	// Validation.
	if err := RunDBSCAN([]string{"-in", in, "-cores", "4", "-paper", "-mergeworkers", "8"}, &out); err == nil {
		t.Fatal("-paper with -mergeworkers accepted")
	}
	if err := RunDBSCAN([]string{"-in", in, "-mergeworkers", "4"}, &out); err == nil {
		t.Fatal("-mergeworkers without -cores accepted")
	}
	if err := RunDBSCAN([]string{"-in", in, "-cores", "4", "-mergeworkers", "-2"}, &out); err == nil {
		t.Fatal("negative -mergeworkers accepted")
	}
}

func TestBenchMergeBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_merge.json")
	var out bytes.Buffer
	err := RunBench([]string{"-bench", "merge", "-smoke", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("report missing: %v", err)
	}
	for _, want := range []string{"speedup", "workers", "parallel", "critical-path share"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestBenchPartBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_partition.json")
	var out bytes.Buffer
	err := RunBench([]string{"-bench", "partition", "-smoke", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("report missing: %v", err)
	}
	for _, want := range []string{"bcast/exec", "range", "cell", "labels-identical", "(proj)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDatagenEmbedding(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunDatagen([]string{"-dataset", "embed4k", "-scale", "0.2", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "embed4k.txt")); err != nil {
		t.Fatalf("output file missing: %v", err)
	}
	if !strings.Contains(out.String(), "800 points, 128 dims") ||
		!strings.Contains(out.String(), "-mode knn") {
		t.Fatalf("unexpected summary: %s", out.String())
	}
}

func TestDBSCANKNNMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "embed4k", "-scale", "0.2", "-out", dir,
		"-format", "bin"}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "embed4k.bin")

	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "0.4", "-minpts", "8",
		"-mode", "knn"}, &out); err != nil {
		t.Fatal(err)
	}
	exact := out.String()
	if !strings.Contains(exact, "clusters: 2") || !strings.Contains(exact, "knn graph: exact, k=16") {
		t.Fatalf("knn exact output:\n%s", exact)
	}

	// The approximate builder: same seed, byte-identical label files,
	// at any worker count.
	var ref []byte
	for i, workers := range []string{"1", "3"} {
		labelFile := filepath.Join(dir, fmt.Sprintf("labels%d.txt", i))
		out.Reset()
		if err := RunDBSCAN([]string{"-in", in, "-eps", "0.4", "-minpts", "8",
			"-mode", "knn", "-knnalgo", "nndescent", "-knnseed", "7",
			"-knnworkers", workers, "-out", labelFile}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "knn graph: nndescent") {
			t.Fatalf("knn nndescent output:\n%s", out.String())
		}
		raw, err := os.ReadFile(labelFile)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = raw
		} else if !bytes.Equal(ref, raw) {
			t.Fatal("nndescent labels differ across -knnworkers for the same seed")
		}
	}

	// The mutual edge rule is accepted.
	out.Reset()
	if err := RunDBSCAN([]string{"-in", in, "-eps", "0.4", "-minpts", "8",
		"-mode", "knn", "-knnmutual"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mutual edges") {
		t.Fatalf("knn mutual output:\n%s", out.String())
	}
}

func TestDBSCANKNNModeErrors(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunDatagen([]string{"-dataset", "c10k", "-scale", "0.05", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "c10k.txt")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown mode", []string{"-in", in, "-mode", "galactic"}},
		{"knn with cores", []string{"-in", in, "-mode", "knn", "-cores", "4"}},
		{"knnalgo without knn mode", []string{"-in", in, "-knnalgo", "nndescent"}},
		{"knnseed without knn mode", []string{"-in", in, "-knnseed", "9"}},
		{"knnmutual without knn mode", []string{"-in", in, "-knnmutual"}},
		{"bad knnalgo", []string{"-in", in, "-mode", "knn", "-knnalgo", "voodoo"}},
		{"k below minpts-1", []string{"-in", in, "-mode", "knn", "-k", "2", "-minpts", "5"}},
	} {
		if err := RunDBSCAN(tc.args, &out); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
