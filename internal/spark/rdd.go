package spark

import (
	"fmt"
	"sync/atomic"

	"sparkdbscan/internal/hdfs"
	"sparkdbscan/internal/simtime"
)

// RDD is a resilient distributed dataset: a lazy, partitioned
// collection described by its lineage. MapPartitionsWithIndex pipelines
// into the stage of the action that consumes it, so a job is one stage
// per action — the shape the paper's Algorithm 2 needs (a broadcast,
// one foreachPartition over the partitions, accumulators back to the
// driver). A failed task recomputes its partition by re-running the
// lineage's compute chain.
type RDD[T any] struct {
	ctx   *Context
	id    int // drawn from the counter broadcast ids share
	name  string
	parts int
	// compute materializes one partition. It must be deterministic: a
	// retried task recomputes the partition from lineage by calling it
	// again.
	compute func(split int, tc *TaskContext) ([]T, error)

	// sizeFn estimates the serialized size of one element; used to
	// charge driver→executor shipping, executor→driver result traffic
	// and checkpoint bytes. Held behind an atomic pointer because tasks
	// of concurrent jobs read it while the driver may still be wiring
	// the lineage; writes are only legal before the first
	// materialization (see SetSizeFunc).
	sizeFn       atomic.Pointer[func(T) int64]
	started      atomic.Bool // a partition has materialized
	checkpointed atomic.Bool
}

// defaultElemSize is the serialized-size guess for elements without a
// SizeFunc: a small struct or boxed number.
const defaultElemSize = 16

func newRDD[T any](ctx *Context, name string, parts int,
	compute func(split int, tc *TaskContext) ([]T, error)) *RDD[T] {
	ctx.mu.Lock()
	id := ctx.nextRDDID
	ctx.nextRDDID++
	ctx.mu.Unlock()
	r := &RDD[T]{
		ctx:     ctx,
		id:      id,
		name:    name,
		parts:   parts,
		compute: compute,
	}
	defaultFn := func(T) int64 { return defaultElemSize }
	r.sizeFn.Store(&defaultFn)
	return r
}

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// SetSizeFunc installs a per-element serialized-size estimator and
// returns r for chaining. It must be called before the RDD's first
// materialization (i.e. while wiring the lineage, not while jobs run):
// tasks read the estimator concurrently, so a later swap would race
// and charge different tasks inconsistently. Calling it after a
// partition has materialized panics.
func (r *RDD[T]) SetSizeFunc(f func(T) int64) *RDD[T] {
	if r.started.Load() {
		panic(fmt.Sprintf("spark: SetSizeFunc on %q after it materialized; set size functions before the first action", r.name))
	}
	r.sizeFn.Store(&f)
	return r
}

// elemSize prices one element with the current estimator.
func (r *RDD[T]) elemSize(e T) int64 { return (*r.sizeFn.Load())(e) }

// materialize returns partition split.
func (r *RDD[T]) materialize(split int, tc *TaskContext) ([]T, error) {
	r.started.Store(true)
	return r.compute(split, tc)
}

// ---------- Creation ----------

// Parallelize distributes data across parts partitions (contiguous
// index ranges, matching the paper's partitioning of points). The
// driver→executor shipping cost of each slice is charged to every task
// that materializes it.
func Parallelize[T any](ctx *Context, data []T, parts int) *RDD[T] {
	if parts < 1 {
		parts = 1
	}
	n := len(data)
	r := newRDD[T](ctx, "parallelize", parts, nil)
	r.compute = func(split int, tc *TaskContext) ([]T, error) {
		lo, hi := partitionRange(n, parts, split)
		out := data[lo:hi]
		var w simtime.Work
		for _, e := range out {
			w.SerBytes += r.elemSize(e)
		}
		tc.Charge(w)
		return out, nil
	}
	return r
}

// partitionRange splits n elements into parts contiguous ranges and
// returns the bounds of range split. The first n%parts ranges get one
// extra element.
func partitionRange(n, parts, split int) (lo, hi int) {
	base := n / parts
	extra := n % parts
	lo = split*base + min(split, extra)
	hi = lo + base
	if split < extra {
		hi++
	}
	return lo, hi
}

// TextFileLines reads an HDFS text file as one partition per block with
// Hadoop TextInputFormat record semantics: a line belongs to the split
// in which it *starts*; a reader whose split does not begin the file
// positions itself one byte before the split, discards through the
// first newline (an empty discard when the previous block ended exactly
// on a line boundary), and reads past its split end to finish its last
// line. Lines must be shorter than a block.
func TextFileLines(ctx *Context, fs *hdfs.FileSystem, name string) (*RDD[string], error) {
	size, err := fs.Size(name)
	if err != nil {
		return nil, err
	}
	bs := int64(fs.BlockSize())
	splits := int((size + bs - 1) / bs)
	if splits == 0 {
		splits = 1
	}
	r := newRDD[string](ctx, fmt.Sprintf("textFileLines(%s)", name), splits, nil)
	r.compute = func(split int, tc *TaskContext) ([]string, error) {
		start := int64(split) * bs
		end := start + bs
		if end > size {
			end = size
		}
		readStart := start
		if split > 0 {
			readStart-- // Hadoop's start-1 trick
		}
		// Over-read one extra block to complete the final line.
		var w simtime.Work
		data, err := fs.ReadAt(name, readStart, end-readStart+bs, &w)
		if err != nil {
			return nil, err
		}
		tc.Charge(w)
		pos := 0
		abs := readStart
		if split > 0 {
			// Discard through the first newline: that line started in
			// (and belongs to) the previous split.
			for pos < len(data) && data[pos] != '\n' {
				pos++
			}
			pos++ // consume the newline itself
			abs = readStart + int64(pos)
		}
		var lines []string
		for abs < end && pos < len(data) {
			nl := pos
			for nl < len(data) && data[nl] != '\n' {
				nl++
			}
			if nl == len(data) && abs+int64(nl-pos) < size {
				return nil, fmt.Errorf("spark: line at byte %d longer than a block", abs)
			}
			lines = append(lines, string(data[pos:nl]))
			abs += int64(nl - pos + 1)
			pos = nl + 1
		}
		tc.ChargeElems(int64(len(lines)))
		return lines, nil
	}
	return r, nil
}

// ---------- Transformation ----------

// MapPartitionsWithIndex transforms a whole partition at once, giving f
// the partition index and task context — the hook the DBSCAN runner
// uses for its per-executor local clustering.
func MapPartitionsWithIndex[T, U any](r *RDD[T],
	f func(split int, in []T, tc *TaskContext) ([]U, error)) *RDD[U] {
	out := newRDD[U](r.ctx, r.name+".mapPartitions", r.parts, nil)
	out.compute = func(split int, tc *TaskContext) ([]U, error) {
		in, err := r.materialize(split, tc)
		if err != nil {
			return nil, err
		}
		return f(split, in, tc)
	}
	return out
}

// ---------- Actions ----------

// Collect materializes every partition and returns all elements in
// partition order, charging the executor→driver result transfer.
func (r *RDD[T]) Collect() ([]T, error) {
	parts, err := runStage(r.ctx, r.name+".collect", r.parts,
		func(split int, tc *TaskContext) ([]T, error) {
			data, err := r.materialize(split, tc)
			if err != nil {
				return nil, err
			}
			var w simtime.Work
			for _, e := range data {
				w.SerBytes += r.elemSize(e)
			}
			w.NetBytes = w.SerBytes
			tc.Charge(w)
			return data, nil
		})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// ForeachPartition runs f once per partition — the paper's Algorithm 2
// executor closure (lines 4–29) runs inside one of these.
func (r *RDD[T]) ForeachPartition(f func(split int, in []T, tc *TaskContext) error) error {
	_, err := runStage(r.ctx, r.name+".foreachPartition", r.parts,
		func(split int, tc *TaskContext) (struct{}, error) {
			data, err := r.materialize(split, tc)
			if err != nil {
				return struct{}{}, err
			}
			return struct{}{}, f(split, data, tc)
		})
	return err
}
