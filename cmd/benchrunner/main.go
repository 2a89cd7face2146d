// Command benchrunner regenerates the paper's tables and figures, and
// runs the registered benches that write the BENCH_*.json reports.
//
// Usage:
//
//	benchrunner -exp all                 # every experiment, paper-scale
//	benchrunner -exp fig7                # one experiment
//	benchrunner -exp fig6b,fig8ef -scale 0.25  # share cached runs at a scale
//	benchrunner -list                    # what exists
//	benchrunner -bench all -out .        # every BENCH_<name>.json, one envelope each
//	benchrunner -bench chaos -seed 9001 -smoke -out ci  # one bench, CI size
//	benchrunner -bench trace -points 2000 -out a        # trace.json + metrics.json
//
// Absolute numbers come from the calibrated cost model described in
// internal/simtime; the shapes (who wins, growth, crossovers) come from
// metered execution of the real algorithms. See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison. A bench exits non-zero when
// one of its gates fails, after writing its report.
package main

import (
	"fmt"
	"os"

	"sparkdbscan/internal/cli"
)

func main() {
	if err := cli.RunBench(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}
