// Package mapreduce simulates the Hadoop MapReduce runtime the paper
// compares against in Figure 7. A job runs in two barriered phases —
// map, then reduce — with Hadoop's characteristic costs charged per
// task: per-container launch overhead (JVM start), a mandatory sort of
// the map output, an intermediate-data spill to local disk, and a
// remote read of that spill by every reducer. Tasks execute for real
// (exact results) and are metered; a vcluster list scheduler turns
// metered costs into phase makespans on the configured cores, exactly
// as the spark package does — so the Figure 7 comparison prices both
// frameworks with the same cost model and differs only in the costs the
// frameworks genuinely incur.
package mapreduce

import (
	"fmt"
	"math"

	"sparkdbscan/internal/par"
	"sparkdbscan/internal/simtime"
	"sparkdbscan/internal/vcluster"
)

// Pair is one keyed record of intermediate data.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Config configures the simulated Hadoop cluster.
type Config struct {
	// Cores is the number of task slots (the paper's "cores").
	Cores int
	// ReduceTasks is R; default = Cores.
	ReduceTasks int
	// Model prices metered work; default simtime.DefaultModel().
	Model *simtime.CostModel
	// TaskLaunchOverhead is the per-task container/JVM start cost.
	// Hadoop 2.x launches a JVM per task; 1 s is the usual ballpark
	// and is the dominant reason small MR jobs crawl.
	TaskLaunchOverhead float64
	// JobSetupOverhead is the per-job fixed cost: client submission,
	// resource-manager scheduling, job setup/cleanup tasks. Real
	// Hadoop 2.x jobs pay 10-30 s before the first map runs; iterative
	// algorithms pay it every round, which is a large part of why the
	// paper's MapReduce DBSCAN trails Spark by 9-16x. Default 10 s.
	JobSetupOverhead float64
	// StragglerFrac and Seed mirror the spark scheduler's jitter.
	StragglerFrac float64
	Seed          uint64
}

func (c Config) withDefaults() Config {
	if c.Cores < 1 {
		c.Cores = 1
	}
	if c.ReduceTasks < 1 {
		c.ReduceTasks = c.Cores
	}
	if c.Model == nil {
		c.Model = simtime.DefaultModel()
	}
	if c.TaskLaunchOverhead == 0 {
		c.TaskLaunchOverhead = 1.0
	}
	if c.JobSetupOverhead == 0 {
		c.JobSetupOverhead = 10.0
	}
	if c.StragglerFrac == 0 {
		c.StragglerFrac = 0.15
	}
	return c
}

// Job describes one MapReduce job over input splits of type I,
// intermediate pairs (K, V) and output records O.
type Job[I any, K comparable, V any, O any] struct {
	Name string
	// Map processes one input split, emitting intermediate pairs and
	// metering its computation into w.
	Map func(split int, input []I, emit func(K, V), w *simtime.Work) error
	// Reduce processes one key group.
	Reduce func(key K, values []V, emit func(O), w *simtime.Work) error
	// Combine, when non-nil, runs as a Hadoop combiner: it folds each
	// map task's values per key before the spill, shrinking the
	// intermediate data the job writes, ships and sorts. It must be
	// associative/commutative and agree with Reduce.
	Combine func(key K, values []V, w *simtime.Work) V
	// KVBytes estimates the serialized size of one intermediate pair
	// (for spill/shuffle pricing). Default 16 bytes.
	KVBytes func(K, V) int64
}

// Report describes a completed job.
type Report struct {
	MapTasks    int
	ReduceTasks int
	// MapSeconds and ReduceSeconds are phase makespans; Hadoop
	// barriers between them. SetupSeconds is the fixed per-job
	// submission/setup cost paid before the first map task.
	MapSeconds    float64
	ReduceSeconds float64
	SetupSeconds  float64
	// IntermediateBytes is the spilled/shuffled data volume.
	IntermediateBytes int64
	// Pairs is the number of intermediate records.
	Pairs int64
	Work  simtime.Work
}

// Total returns the job's wall time under the barrier model.
func (r Report) Total() float64 { return r.SetupSeconds + r.MapSeconds + r.ReduceSeconds }

// Run executes the job over the given input splits (one map task per
// split) and returns the reducer outputs in unspecified order. Each
// phase's tasks run on GOMAXPROCS goroutines (par.For); that affects
// only the wall clock, never the simulated makespans.
func Run[I any, K comparable, V any, O any](cfg Config, job Job[I, K, V, O], splits [][]I) ([]O, *Report, error) {
	cfg = cfg.withDefaults()
	if job.Map == nil || job.Reduce == nil {
		return nil, nil, fmt.Errorf("mapreduce: job %q needs Map and Reduce", job.Name)
	}
	kvBytes := job.KVBytes
	if kvBytes == nil {
		kvBytes = func(K, V) int64 { return 16 }
	}
	rep := &Report{
		MapTasks:     len(splits),
		ReduceTasks:  cfg.ReduceTasks,
		SetupSeconds: cfg.JobSetupOverhead,
	}

	// ----- Map phase -----
	type mapOut struct {
		buckets [][]Pair[K, V] // per reducer
		work    simtime.Work
	}
	outs := make([]mapOut, len(splits))
	errs := make([]error, len(splits))
	mapTask := func(s int) error {
		var w simtime.Work
		buckets := make([][]Pair[K, V], cfg.ReduceTasks)
		emitted := int64(0)
		var bytes int64
		emit := func(k K, v V) {
			b := int(hashKey(k) % uint64(cfg.ReduceTasks))
			buckets[b] = append(buckets[b], Pair[K, V]{k, v})
			emitted++
			bytes += kvBytes(k, v)
		}
		if err := job.Map(s, splits[s], emit, &w); err != nil {
			return err
		}
		if job.Combine != nil {
			emitted, bytes = 0, 0
			for bi, bucket := range buckets {
				groups := make(map[K][]V)
				var keyOrder []K
				for _, p := range bucket {
					w.HashOps++
					if _, ok := groups[p.Key]; !ok {
						keyOrder = append(keyOrder, p.Key)
					}
					groups[p.Key] = append(groups[p.Key], p.Value)
				}
				combined := make([]Pair[K, V], 0, len(groups))
				for _, k := range keyOrder {
					v := job.Combine(k, groups[k], &w)
					combined = append(combined, Pair[K, V]{k, v})
					emitted++
					bytes += kvBytes(k, v)
				}
				buckets[bi] = combined
			}
		}
		// Hadoop sorts map output by key before spilling.
		if emitted > 1 {
			w.SortComps += int64(float64(emitted) * math.Log2(float64(emitted)))
		}
		w.SerBytes += bytes
		w.DiskWriteBytes += bytes
		outs[s] = mapOut{buckets: buckets, work: w}
		return nil
	}
	par.For(len(splits), 1, 0, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			errs[s] = mapTask(s)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: %q map failed: %w", job.Name, err)
		}
	}
	mapTasks := make([]vcluster.Task, len(splits))
	for s := range outs {
		mapTasks[s] = vcluster.Task{ID: s, Seconds: cfg.Model.Seconds(outs[s].work)}
		rep.Work.Add(outs[s].work)
		for _, b := range outs[s].buckets {
			rep.Pairs += int64(len(b))
			for _, p := range b {
				rep.IntermediateBytes += kvBytes(p.Key, p.Value)
			}
		}
	}
	mapSched := vcluster.Run(mapTasks, vcluster.Options{
		Cores:          cfg.Cores,
		LaunchOverhead: cfg.TaskLaunchOverhead,
		StragglerFrac:  cfg.StragglerFrac,
		Seed:           cfg.Seed,
	})
	rep.MapSeconds = mapSched.Makespan

	// ----- Reduce phase (after the barrier) -----
	type redOut struct {
		out  []O
		work simtime.Work
	}
	reds := make([]redOut, cfg.ReduceTasks)
	redErrs := make([]error, cfg.ReduceTasks)
	reduceTask := func(r int) error {
		var w simtime.Work
		// Remote-read every map task's bucket for this reducer.
		groups := make(map[K][]V)
		order := []K{} // deterministic key order: first appearance
		var total int64
		for s := range outs {
			for _, p := range outs[s].buckets[r] {
				sz := kvBytes(p.Key, p.Value)
				w.DiskReadBytes += sz
				w.NetBytes += sz
				if _, ok := groups[p.Key]; !ok {
					order = append(order, p.Key)
				}
				groups[p.Key] = append(groups[p.Key], p.Value)
				total++
				w.HashOps++
			}
		}
		// Merge sort of the fetched runs.
		if total > 1 {
			w.SortComps += int64(float64(total) * math.Log2(float64(total)))
		}
		var out []O
		emit := func(o O) { out = append(out, o) }
		for _, k := range order {
			if err := job.Reduce(k, groups[k], emit, &w); err != nil {
				return err
			}
		}
		reds[r] = redOut{out: out, work: w}
		return nil
	}
	par.For(cfg.ReduceTasks, 1, 0, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			redErrs[r] = reduceTask(r)
		}
	})
	for _, err := range redErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: %q reduce failed: %w", job.Name, err)
		}
	}
	redTasks := make([]vcluster.Task, cfg.ReduceTasks)
	var results []O
	for r := range reds {
		redTasks[r] = vcluster.Task{ID: r, Seconds: cfg.Model.Seconds(reds[r].work)}
		rep.Work.Add(reds[r].work)
		results = append(results, reds[r].out...)
	}
	redSched := vcluster.Run(redTasks, vcluster.Options{
		Cores:          cfg.Cores,
		LaunchOverhead: cfg.TaskLaunchOverhead,
		StragglerFrac:  cfg.StragglerFrac,
		Seed:           cfg.Seed ^ 0xdeadbeef,
	})
	rep.ReduceSeconds = redSched.Makespan
	return results, rep, nil
}

func hashKey(k any) uint64 {
	switch v := k.(type) {
	case int:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(uint32(v)))
	case int64:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case string:
		var h uint64 = 14695981039346656037
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
		return h
	default:
		return mix64(uint64(fmt.Sprintf("%v", v)[0]) + 0x9e37)
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
