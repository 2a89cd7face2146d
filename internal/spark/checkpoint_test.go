package spark

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"sparkdbscan/internal/hdfs"
)

func TestCheckpointRoundTripAndLineageTruncation(t *testing.T) {
	ctx := NewContext(Config{Cores: 4})
	fs := hdfs.New(1<<20, 3)
	var upstream atomic.Int64
	rdd := mapEach(Parallelize(ctx, intRange(100), 5), func(v int) int {
		upstream.Add(1)
		return v * 2
	})
	before, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := rdd.Checkpoint(fs, "chk/doubled"); err != nil {
		t.Fatal(err)
	}
	if !rdd.Checkpointed() {
		t.Fatal("Checkpointed() false after Checkpoint")
	}
	calls := upstream.Load()
	after, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("collect after checkpoint: %d elements, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("element %d changed across checkpoint: %d vs %d", i, after[i], before[i])
		}
	}
	if got := upstream.Load(); got != calls {
		t.Fatalf("upstream recomputed after checkpoint (%d extra calls): lineage not truncated", got-calls)
	}
	// One part file per partition landed in the filesystem.
	parts := 0
	for _, name := range fs.List() {
		if strings.HasPrefix(name, "chk/doubled/part-") {
			parts++
		}
	}
	if parts != 5 {
		t.Fatalf("%d part files, want 5", parts)
	}
}

func TestCheckpointChargesWriteAndRead(t *testing.T) {
	const elemBytes = 100
	ctx := NewContext(Config{Cores: 2})
	fs := hdfs.New(1<<20, 3)
	rdd := Parallelize(ctx, intRange(50), 2).
		SetSizeFunc(func(int) int64 { return elemBytes })
	if err := rdd.Checkpoint(fs, "chk/f"); err != nil {
		t.Fatal(err)
	}
	rep := ctx.Report()
	chk := rep.Stages[len(rep.Stages)-1]
	if !strings.HasSuffix(chk.Name, ".checkpoint") {
		t.Fatalf("last stage is %q, want the checkpoint stage", chk.Name)
	}
	total := int64(50 * elemBytes)
	if chk.Work.HDFSBytes != total*3 {
		t.Fatalf("checkpoint write charged %d HDFS bytes, want %d (replicated)", chk.Work.HDFSBytes, total*3)
	}
	if chk.Work.SerBytes < total {
		t.Fatalf("checkpoint charged %d SerBytes, want ≥ %d", chk.Work.SerBytes, total)
	}
	// A post-checkpoint materialization pays the read + deserialization.
	if _, err := rdd.Collect(); err != nil {
		t.Fatal(err)
	}
	rep = ctx.Report()
	col := rep.Stages[len(rep.Stages)-1]
	if col.Work.HDFSBytes != total {
		t.Fatalf("post-checkpoint collect read %d HDFS bytes, want %d", col.Work.HDFSBytes, total)
	}
}

func TestCheckpointCutsRecomputationUnderRetries(t *testing.T) {
	// A failed downstream attempt recomputes its input from lineage.
	// Without a checkpoint that replays the upstream map; with one it
	// re-reads the checkpoint instead.
	run := func(checkpoint bool) int64 {
		var upstream atomic.Int64
		ctx := NewContext(Config{Cores: 2})
		fs := hdfs.New(1<<20, 1)
		rdd := mapEach(Parallelize(ctx, intRange(40), 4), func(v int) int {
			upstream.Add(1)
			return v + 1
		})
		if checkpoint {
			if err := rdd.Checkpoint(fs, "chk"); err != nil {
				t.Fatal(err)
			}
		}
		base := upstream.Load()
		var fails atomic.Int64
		err := rdd.ForeachPartition(func(split int, in []int, tc *TaskContext) error {
			// Fail after the input materialized, like a task dying
			// mid-body: the retry recomputes the partition.
			if split == 1 && tc.Attempt < 2 {
				fails.Add(1)
				return errors.New("injected")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fails.Load() != 2 {
			t.Fatalf("task failed %d times, want 2", fails.Load())
		}
		return upstream.Load() - base
	}
	withChk := run(true)
	withoutChk := run(false)
	if withChk != 0 {
		t.Fatalf("checkpointed run replayed upstream %d times; retries must read the checkpoint", withChk)
	}
	if withoutChk <= 40 {
		t.Fatalf("lineage run recomputed only %d upstream calls; retries should replay the chain", withoutChk)
	}
}

func TestCheckpointReadsSurviveStorageFaults(t *testing.T) {
	ctx := NewContext(Config{Cores: 4})
	fs := hdfs.New(256, 3)
	rdd := Parallelize(ctx, intRange(100), 5).
		SetSizeFunc(func(int) int64 { return 64 })
	if err := rdd.Checkpoint(fs, "chk"); err != nil {
		t.Fatal(err)
	}
	clean, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaultProfile(&hdfs.StorageFaultProfile{Seed: 13, CorruptRate: 0.6, DatanodeCrashRate: 0.3})
	faulty, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("element %d changed under storage faults", i)
		}
	}
	st := fs.Stats()
	if st.ChecksumFailures == 0 && st.DeadNodeProbes == 0 {
		t.Fatal("aggressive profile produced no storage-fault events")
	}
}
