package core

import "fmt"

// SeedMode controls how foreign points encountered during local
// expansion are recorded (Algorithm 3's "placing SEEDs"). Run derives
// it from the merge: MergePaper runs on SeedSingle partials, every
// other merge on SeedExact partials.
type SeedMode int

const (
	// SeedSingle is the paper's rule: at most one SEED per foreign
	// partition per partial cluster (the place_flg logic of Algorithm
	// 3). Cheapest, but it can drop merge edges and lose unclaimed
	// border points — see DESIGN.md §3.
	SeedSingle SeedMode = iota
	// SeedExact produces partial clusters whose canonical merge
	// (MergeParallel) is byte-identical to sequential DBSCAN,
	// independent of partition shape or accumulator commit order:
	// Members holds only *core* owned points (Members[0] is the
	// lowest-index core, because the local scan proceeds in ascending
	// index order and mapIDs keeps it lowest when it remaps the ids),
	// every owned non-core point reached goes to Borders
	// of EVERY cluster that reaches it, and every foreign point reached
	// goes to Seeds (its coreness is resolved at the driver: a seed that
	// is a member somewhere is core, one that is a member nowhere is a
	// border). No extra queries, no per-partition seed placement charge
	// — this is the cell-partitioning local contract, also usable with
	// index ranges.
	SeedExact
)

func (m SeedMode) String() string {
	switch m {
	case SeedSingle:
		return "single"
	case SeedExact:
		return "exact"
	default:
		return fmt.Sprintf("SeedMode(%d)", int(m))
	}
}

// PartialCluster is what one executor builds for one locally connected
// group of points (the paper's C[i] boxes in Figure 4).
type PartialCluster struct {
	// Partition is the owning partition (par_A in Algorithm 3).
	Partition int32
	// Seq numbers the cluster within its partition.
	Seq int32
	// Members are the owned points of the cluster ("regular
	// elements"): every one lies in the partition's range. Under the
	// exact pair that range is a run of the kd-tree's leaf order, and
	// rangeStage maps members back to input ids before they leave the
	// executor.
	Members []int32
	// Seeds are foreign points recorded as merge markers. Per the
	// paper they are also elements of the final merged cluster
	// (Figure 4b keeps 3000 in the merged C[0]).
	Seeds []int32
	// Borders are owned non-core points recorded under SeedExact: every
	// cluster that reaches one lists it, and the merge awards it to the
	// lowest claiming cluster. They never drive a merge.
	Borders []int32
}

// ID returns a globally unique cluster id.
func (pc *PartialCluster) ID() int64 { return int64(pc.Partition)<<32 | int64(uint32(pc.Seq)) }

// Size returns the number of elements (members + seeds + borders).
func (pc *PartialCluster) Size() int { return len(pc.Members) + len(pc.Seeds) + len(pc.Borders) }

// SizeBytes estimates the serialized size of the cluster for the
// accumulator's executor→driver transfer: 4 bytes per index plus a
// small header.
func (pc *PartialCluster) SizeBytes() int64 {
	return int64(pc.Size())*4 + 24
}

// String renders a compact description for logs and tests.
func (pc *PartialCluster) String() string {
	return fmt.Sprintf("PC{part=%d seq=%d members=%d seeds=%d borders=%d}",
		pc.Partition, pc.Seq, len(pc.Members), len(pc.Seeds), len(pc.Borders))
}

// mapIDs rewrites the partial clusters' point ids from an executor's
// local index space to input ids: local id k becomes ids[k]. The
// canonical merge ranks components by Members[0], so the lowest mapped
// member is swapped into Members[0]; the others are left in no
// particular order.
func mapIDs(clusters []PartialCluster, ids []int32) {
	for i := range clusters {
		pc := &clusters[i]
		for _, s := range [][]int32{pc.Members, pc.Seeds, pc.Borders} {
			for j, k := range s {
				s[j] = ids[k]
			}
		}
		m := pc.Members
		for j := 1; j < len(m); j++ {
			if m[j] < m[0] {
				m[0], m[j] = m[j], m[0]
			}
		}
	}
}
