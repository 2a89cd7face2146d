package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/spark"
)

// TestJournalCreateErrorSurfacesAtFlush: a journal whose create fails
// (here: an empty file name, which HDFS rejects) must report the
// failure from flush — at its source — instead of discarding it and
// letting it resurface later as a confusing replay error.
func TestJournalCreateErrorSurfacesAtFlush(t *testing.T) {
	fs := hdfs.New(1<<10, 2)
	jr := newJournal(fs, "")
	// Commits after a failed create are no-ops, not panics.
	jr.commit([]PartialCluster{{Partition: 0, Seq: 0, Members: []int32{1}}})
	if jr.count != 0 {
		t.Fatalf("commit after failed create recorded %d clusters", jr.count)
	}
	_, err := jr.flush()
	if err == nil {
		t.Fatal("flush returned nil after a failed journal create")
	}
	if !strings.Contains(err.Error(), "journal create") {
		t.Fatalf("error does not name the failing step: %v", err)
	}
}

// TestJournalReplayCorruptLengthPrefix: replay must reject — with an
// error, never a panic or a giant allocation — records whose length
// prefix claims more bytes than the file holds. The old `n < 0` guard
// was dead code (a uint32 widened to int is never negative); the real
// bound is the remaining file length.
func TestJournalReplayCorruptLengthPrefix(t *testing.T) {
	fs := hdfs.New(1<<10, 2)

	write := func(name string, data []byte) *journal {
		t.Helper()
		if err := fs.Write(name, data, nil); err != nil {
			t.Fatal(err)
		}
		return &journal{fs: fs, name: name}
	}

	// A valid record to splice corruption after.
	pc := PartialCluster{Partition: 3, Seq: 1, Members: []int32{4, 5}, Seeds: []int32{9}}
	rec, err := pc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	valid := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	valid = append(valid, rec...)

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated header", []byte{0x01, 0x02, 0x03}},
		{"length past EOF", binary.LittleEndian.AppendUint32(nil, 1000)},
		{"huge length", binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)},
		{"corrupt second record", append(append([]byte(nil), valid...),
			binary.LittleEndian.AppendUint32(nil, 1<<30)...)},
	}
	for _, c := range cases {
		jr := write("j-"+c.name, c.data)
		if _, err := jr.replay(nil); err == nil {
			t.Errorf("%s: replay accepted corrupt journal", c.name)
		}
	}

	// The spliced-valid-prefix case must have decoded nothing usable:
	// an intact file of the same prefix replays the one record fine.
	jr := write("j-ok", valid)
	out, err := jr.replay(nil)
	if err != nil || len(out) != 1 {
		t.Fatalf("valid single-record journal: %v, %v", out, err)
	}
}

// TestRecoveredMergeChargesWholeWastedAttempt pins the corrected
// wasted-first-attempt pricing: the crashed run's extra driver work —
// beyond the journal replay — is the merge's whole ledger scaled by
// CrashPointFrac, field by field. The old code re-priced MergeOps only,
// so under the canonical merge (whose ledger includes SortComps from
// the component sort) the crashed SortComps line never grew.
func TestRecoveredMergeChargesWholeWastedAttempt(t *testing.T) {
	ds := testDataset(t, "c10k", 1500)
	const frac = 0.5
	run := func(storage *StorageOptions) (*Result, spark.Report) {
		sctx := spark.NewContext(spark.Config{Cores: 8, Seed: 11})
		res, err := Run(sctx, ds, Config{
			Params: tableParams, Partitions: 6,
			Merge: MergeOptions{Workers: 1}, Storage: storage,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sctx.Report()
	}
	cleanFS := hdfs.New(1<<16, 3)
	clean, cleanRep := run(&StorageOptions{FS: cleanFS})
	crashFS := hdfs.New(1<<16, 3)
	crashed, crashRep := run(&StorageOptions{
		FS: crashFS, SimulateDriverCrash: true, CrashPointFrac: frac,
	})

	mw := clean.Global.Work
	if mw.SortComps == 0 {
		t.Fatal("canonical merge metered no SortComps; test exercises nothing")
	}
	wasted := simtime.Scale(mw, frac)
	// The replay charges read/byte lines only, so the MergeOps and
	// SortComps deltas isolate the wasted-attempt charge exactly.
	if got, want := crashRep.DriverWork.SortComps-cleanRep.DriverWork.SortComps, wasted.SortComps; got != want {
		t.Fatalf("wasted SortComps charge = %d, want Scale(merge, %g) = %d", got, frac, want)
	}
	if got, want := crashRep.DriverWork.MergeOps-cleanRep.DriverWork.MergeOps, wasted.MergeOps; got != want {
		t.Fatalf("wasted MergeOps charge = %d, want Scale(merge, %g) = %d", got, frac, want)
	}
	if crashed.Phases.Merge <= clean.Phases.Merge {
		t.Fatalf("crash+recovery did not cost merge time: %g vs %g",
			crashed.Phases.Merge, clean.Phases.Merge)
	}
}
