package kdtree

import "math"

// NoKey is the key MinKey reports when no point within eps carries a
// smaller one; callers give it to points that must never win.
const NoKey = math.MaxInt32

// KeyMins returns, for every node of the tree, the least keys[p] over
// the points p the node owns (NoKey for none below it). keys holds one
// key per point of the indexed dataset. The sweep is bottom-up, O(nodes
// + n): every child has a higher node index than its parent (Build
// reserves a parent's slot before its subtrees, and grafted subtrees
// are appended after the skeleton), so a reverse pass meets both
// children first.
func (t *Tree) KeyMins(keys []int32) []int32 {
	mins := make([]int32, len(t.nodes))
	for ni := len(t.nodes) - 1; ni >= 0; ni-- {
		nd := &t.nodes[ni]
		if nd.splitDim >= 0 {
			mins[ni] = min(mins[nd.left], mins[nd.right])
			continue
		}
		m := int32(NoKey)
		for _, p := range t.order[nd.start:nd.end] {
			m = min(m, keys[p])
		}
		mins[ni] = m
	}
	return mins
}

// MinKey answers two questions about q's closed eps-neighbourhood N
// with one descent: the least keys[p] over p in N (NoKey if N is
// empty), and min(|N|, limit). mins must be KeyMins(keys); limit must
// be non-negative.
//
// The descent pops the near child first. Until the count reaches
// limit it visits every node Radius would; from then on it skips,
// with no box test, every node whose minimum is not below the least
// key found so far, because nothing under such a node can lower the
// answer and the count no longer needs to grow. A leaf's points are
// classified by leafHits, as scanLeaf classifies them, so every point
// counts exactly when Radius would report it. stats may be nil.
func (t *Tree) MinKey(q []float64, eps float64, keys, mins []int32, limit int, stats *SearchStats) (key int32, count int) {
	key = NoKey
	if t.root < 0 {
		return key, 0
	}
	var qs query
	t.prepare(&qs, q, eps*eps)
	q32, eps2, sHi := qs.q32(), qs.eps2, qs.sHi
	var local SearchStats
	var stack [maxDepth]int32
	stack[0] = t.root
	sp := 1
	for sp > 0 {
		sp--
		ni := stack[sp]
		if count >= limit && mins[ni] >= key {
			continue
		}
		local.NodesVisited++
		var miss bool
		if q32 != nil {
			miss = t.misses32(ni, q32, sHi)
		} else {
			miss = t.boxMisses(ni, q, q, sHi)
		}
		if miss {
			continue
		}
		nd := &t.nodes[ni]
		if nd.splitDim < 0 {
			local.DistComps += int64(nd.end - nd.start)
			for lo := nd.start; lo < nd.end; lo += leafChunk {
				n := t.leafHits(ni, lo, &qs)
				count += n
				for _, p := range qs.st.ids[:n] {
					key = min(key, keys[p])
				}
			}
			continue
		}
		// Far child first (only if the plane is within reach), so the
		// near child pops first; see radiusIter.
		dd := q[nd.splitDim] - nd.splitVal
		near, far := nd.left, nd.right
		if dd > 0 {
			near, far = far, near
		}
		if dd*dd <= eps2 {
			stack[sp] = far
			sp++
		}
		stack[sp] = near
		sp++
	}
	count = min(count, limit)
	local.Reported = int64(count)
	if stats != nil {
		stats.Add(local)
	}
	return key, count
}
