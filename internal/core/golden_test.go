package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"sparkdbscan/internal/spark"
)

// partitionFiltersGolden pins core.Run's observable output for both
// partitioning modes with the executor-side filters (MaxNeighbors,
// MinLocalClusterSize) on and off. Each value was recorded once and is
// compared exactly: a refactor of the local clustering, the stages or
// the accumulator hand-off must leave labels, partial-cluster counts,
// the phase decomposition and the simulated clock unchanged. Floats
// print in Go's shortest round-trip form, so equal strings mean equal
// bits.
var partitionFiltersGolden = map[string]string{
	"c10k/range/parallel/none":      "labels=2e96c4072f7df968 partials=16 dropped=0 noise=79 merges=13 phases=[0.006150000000000001 0.01815 0.004045840000000002 6.682119675234783 0.0405495 0 0] driver=0.06889534 executor=6.682119675234783",
	"c10k/range/parallel/maxnb16":   "labels=1d7ac3ae4f27657c partials=51 dropped=0 noise=90 merges=40 phases=[0.006150000000000001 0.01815 0.004045840000000002 1.3889142639183307 0.11071393750000001 0 0] driver=0.1390597775 executor=1.3889142639183307",
	"c10k/range/parallel/minlocal8": "labels=2e96c4072f7df968 partials=12 dropped=0 noise=83 merges=9 phases=[0.006150000000000001 0.01815 0.004045840000000002 6.68211743048824 0.03215825 0 0] driver=0.06050409 executor=6.68211743048824",
	"c10k/range/parallel/both":      "labels=df1b072f11936940 partials=16 dropped=0 noise=126 merges=13 phases=[0.006150000000000001 0.01815 0.004045840000000002 1.3889100447957374 0.037261062500000004 0 0] driver=0.06560690250000001 executor=1.3889100447957374",
	"c10k/range/paper/none":         "labels=fd1a733e13a52bc3 partials=112 dropped=0 noise=109 merges=109 phases=[0.006150000000000001 0.014399999999999998 0.00392584 5.441367907847662 0.9502787500000001 0 0] driver=0.9747545900000001 executor=5.441367907847662",
	"c10k/range/paper/maxnb16":      "labels=19bb58f0b0b0626c partials=1182 dropped=0 noise=115 merges=1179 phases=[0.006150000000000001 0.014399999999999998 0.00392584 4.800043582150746 9.92413625 0 0] driver=9.94861209 executor=4.800043582150746",
	"c10k/range/paper/minlocal8":    "labels=5bbce2aa3d59d68e partials=41 dropped=0 noise=180 merges=38 phases=[0.006150000000000001 0.014399999999999998 0.00392584 5.441356976484581 0.3547 0 0] driver=0.37917584000000004 executor=5.441356976484581",
	"c10k/range/paper/both":         "labels=2168a217a3f520c7 partials=685 dropped=0 noise=614 merges=682 phases=[0.006150000000000001 0.014399999999999998 0.00392584 4.799957953139937 5.755458750000001 0 0] driver=5.779934590000001 executor=4.799957953139937",
	"c10k/cell/none":                "labels=2e96c4072f7df968 partials=215 dropped=0 noise=101 merges=212 phases=[0.006150000000000001 0 8.732000000000184e-05 4.65852238599429 0.4768073125 0 0.09000000000000001] driver=0.5730446325 executor=4.65852238599429",
	"c10k/cell/maxnb16":             "labels=711abcbb9ebb86d8 partials=768 dropped=0 noise=113 merges=765 phases=[0.006150000000000001 0 8.732000000000184e-05 1.5962948716811511 1.622913875 0 0.09000000000000001] driver=1.719151195 executor=1.5962948716811511",
	"c10k/cell/minlocal8":           "labels=2e96c4072f7df968 partials=192 dropped=0 noise=124 merges=189 phases=[0.006150000000000001 0 8.732000000000184e-05 4.6585152772955 0.428552625 0 0.09000000000000001] driver=0.524789945 executor=4.6585152772955",
	"c10k/cell/both":                "labels=7a403dd330e0b87a partials=714 dropped=0 noise=167 merges=711 phases=[0.006150000000000001 0 8.732000000000184e-05 1.5962872905793157 1.509646375 0 0.09000000000000001] driver=1.605883695 executor=1.5962872905793157",
	"r10k/range/parallel/none":      "labels=d6239cce576309ac partials=16 dropped=0 noise=380 merges=13 phases=[0.006150000000000001 0.01815 0.004045840000000002 6.505997228729209 0.039176375 0 0] driver=0.067522215 executor=6.505997228729209",
	"r10k/range/parallel/maxnb16":   "labels=5066bd84dcef56b0 partials=30 dropped=0 noise=386 merges=27 phases=[0.006150000000000001 0.01815 0.004045840000000002 2.041822918692176 0.06683481250000001 0 0] driver=0.09518065250000002 executor=2.041822918692176",
	"r10k/range/parallel/minlocal8": "labels=d6239cce576309ac partials=12 dropped=0 noise=384 merges=9 phases=[0.006150000000000001 0.01815 0.004045840000000002 6.505996242323154 0.030787000000000005 0 0] driver=0.059132840000000006 executor=6.505996242323154",
	"r10k/range/parallel/both":      "labels=0e8a97e786f26a8f partials=15 dropped=0 noise=401 merges=12 phases=[0.006150000000000001 0.01815 0.004045840000000002 2.041819301869972 0.0353810625 0 0] driver=0.0637269025 executor=2.041819301869972",
	"r10k/range/paper/none":         "labels=ba4eacfd4019725c partials=242 dropped=0 noise=454 merges=239 phases=[0.006150000000000001 0.014399999999999998 0.00392584 5.175945142556424 2.03964375 0 0] driver=2.0641195900000002 executor=5.175945142556424",
	"r10k/range/paper/maxnb16":      "labels=b812edb9b6e4177b partials=1007 dropped=0 noise=471 merges=1004 phases=[0.006150000000000001 0.014399999999999998 0.00392584 4.968938367727569 8.454765 0 0] driver=8.47924084 executor=4.968938367727569",
	"r10k/range/paper/minlocal8":    "labels=72673746612e72a9 partials=73 dropped=0 noise=627 merges=70 phases=[0.006150000000000001 0.014399999999999998 0.00392584 5.1759171767557355 0.6221025 0 0] driver=0.64657834 executor=5.1759171767557355",
	"r10k/range/paper/both":         "labels=632bb0e03ab74dee partials=503 dropped=0 noise=986 merges=500 phases=[0.006150000000000001 0.014399999999999998 0.00392584 4.968864341303891 4.227855 0 0] driver=4.25233084 executor=4.968864341303891",
	"r10k/cell/none":                "labels=d6239cce576309ac partials=285 dropped=0 noise=445 merges=282 phases=[0.006150000000000001 0 0.00019412000000000595 3.9632207444325336 0.6137835625000001 0 0.09187500000000001] driver=0.7120026825000001 executor=3.9632207444325336",
	"r10k/cell/maxnb16":             "labels=71a018b2f9e3822d partials=610 dropped=0 noise=460 merges=607 phases=[0.006150000000000001 0 0.00019412000000000595 1.9635463898858785 1.2894929375 0 0.09187500000000001] driver=1.3877120575 executor=1.9635463898858785",
	"r10k/cell/minlocal8":           "labels=d6239cce576309ac partials=236 dropped=0 noise=494 merges=233 phases=[0.006150000000000001 0 0.00019412000000000595 3.9632106814693104 0.5109916875 0 0.09187500000000001] driver=0.6092108075 executor=3.9632106814693104",
	"r10k/cell/both":                "labels=132d4c6a9e57b94e partials=528 dropped=0 noise=542 merges=525 phases=[0.006150000000000001 0 0.00019412000000000595 1.9635375310702508 1.1174860625 0 0.09187500000000001] driver=1.2157051825 executor=1.9635375310702508",
}

// fingerprint summarizes one Run: a labels SHA-256 prefix, the merge
// counters, the phase decomposition and the simulated clock.
func fingerprint(res *Result) string {
	h := sha256.New()
	buf := make([]byte, 4)
	for _, l := range res.Global.Labels {
		binary.LittleEndian.PutUint32(buf, uint32(l))
		h.Write(buf)
	}
	g, p := res.Global, res.Phases
	return fmt.Sprintf("labels=%x partials=%d dropped=%d noise=%d merges=%d "+
		"phases=[%v %v %v %v %v %v %v] driver=%v executor=%v",
		h.Sum(nil)[:8], g.NumPartialClusters, g.DroppedPartials, res.LocalNoise, g.NumMerges,
		p.ReadTransform, p.TreeBuild, p.Broadcast, p.Executors, p.Merge, p.Journal, p.Plan,
		res.Report.DriverSeconds, res.Report.ExecutorSeconds)
}

func TestPartitionFiltersGolden(t *testing.T) {
	variants := []struct {
		name         string
		maxNeighbors int
		minLocal     int
	}{
		{"none", 0, 0},
		{"maxnb16", 16, 0},
		{"minlocal8", 0, 8},
		{"both", 16, 8},
	}
	arms := []struct {
		name  string
		mode  PartitionMode
		merge MergeAlgo
	}{
		{"range/parallel", PartRange, MergeParallel},
		{"range/paper", PartRange, MergePaper},
		{"cell", PartCell, MergeParallel},
	}
	for _, dsName := range []string{"c10k", "r10k"} {
		ds := testDataset(t, dsName, 3000)
		for _, arm := range arms {
			for _, v := range variants {
				key := dsName + "/" + arm.name + "/" + v.name
				sctx := spark.NewContext(spark.Config{Cores: 8, Seed: 42})
				res, err := Run(sctx, ds, Config{
					Params:              tableParams,
					Partitions:          8,
					Merge:               MergeOptions{Algo: arm.merge},
					MaxNeighbors:        v.maxNeighbors,
					MinLocalClusterSize: v.minLocal,
					Partitioning:        arm.mode,
					Cell:                CellOptions{TargetPointsPerCell: 250},
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := fingerprint(res), partitionFiltersGolden[key]; got != want {
					t.Errorf("%s:\n got  %q\n want %q", key, got, want)
				}
			}
		}
	}
}
