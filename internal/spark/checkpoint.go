package spark

import (
	"fmt"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
)

// Checkpoint eagerly materializes every partition of r, writes it to
// the filesystem under dir (one part file per partition, replicated
// like any HDFS write), and truncates the lineage: r.compute is
// replaced by a reader of the checkpointed partition, so later jobs —
// and, critically, task-failure recomputation — pay a checkpoint read
// instead of replaying the upstream chain. Mirrors
// rdd.checkpoint() + an immediate action (Spark's checkpoint is lazy;
// here the materializing job is run inline).
//
// Both sides of the tradeoff are priced: the checkpointing stage
// charges serialization plus the replicated write, and every
// post-checkpoint materialization charges the HDFS read (through the
// replica-failover path when a StorageFaultProfile is active) plus
// deserialization. benchrunner -bench storage measures the crossover
// against lineage recomputation.
//
// Like SetSizeFunc, this is driver-side wiring: call it between
// actions, not while jobs on r are in flight.
func (r *RDD[T]) Checkpoint(fs *hdfs.FileSystem, dir string) error {
	part := func(split int) string { return fmt.Sprintf("%s/part-%05d", dir, split) }
	type chk struct {
		data  []T
		bytes int64
	}
	parts, err := runStage(r.ctx, r.name+".checkpoint", r.parts,
		func(split int, tc *TaskContext) (chk, error) {
			data, err := r.materialize(split, tc)
			if err != nil {
				return chk{}, err
			}
			var bytes int64
			for _, e := range data {
				bytes += r.elemSize(e)
			}
			var w simtime.Work
			w.SerBytes += bytes
			// The payload is synthetic (the simulator keeps elements in
			// memory and meters bytes); its size is what the write and
			// every later read are charged for.
			if err := fs.Write(part(split), make([]byte, bytes), &w); err != nil {
				return chk{}, err
			}
			tc.Charge(w)
			return chk{data: data, bytes: bytes}, nil
		})
	if err != nil {
		return err
	}
	chkData := make([][]T, len(parts))
	sizes := make([]int64, len(parts))
	for i, p := range parts {
		chkData[i] = p.data
		sizes[i] = p.bytes
	}
	r.compute = func(split int, tc *TaskContext) ([]T, error) {
		var w simtime.Work
		if _, err := fs.Read(part(split), &w); err != nil {
			return nil, err
		}
		w.SerBytes += sizes[split]
		tc.Charge(w)
		return chkData[split], nil
	}
	r.checkpointed.Store(true)
	return nil
}

// Checkpointed reports whether Checkpoint has completed on r.
func (r *RDD[T]) Checkpointed() bool { return r.checkpointed.Load() }
