//go:build amd64

package kdtree

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/rng"
)

// usePortableKernel runs the rest of the test on the portable kernels
// (a test that calls it must not run in parallel).
func usePortableKernel(t *testing.T) {
	t.Helper()
	was := geom.HasAVX2FMA
	geom.HasAVX2FMA = false
	t.Cleanup(func() { geom.HasAVX2FMA = was })
}

// kernelCase is one leaf-kernel call's input.
type kernelCase struct {
	q, p       []float32
	stride     int
	ids        []int32
	cnt        int
	sLo, sHi   float32
	name       string
	wantPacked int // checked when >= 0
}

// checkKernelsAgree runs both kernels on c and requires the same count,
// uncertain flag, ids and distance bits.
func checkKernelsAgree(t *testing.T, c kernelCase) {
	t.Helper()
	var a, g stage
	n, unsure := leafPackAVX2(&c.q[0], &c.p[0], &c.ids[0], &a, &packPerm, int64(c.stride), int64(c.cnt), int64(len(c.q)), c.sLo, c.sHi)
	gn, gUnsure := leafPackGo(c.q, c.p, c.stride, c.ids, c.cnt, &g, c.sLo, c.sHi)
	if int(n) != gn || unsure != gUnsure {
		t.Fatalf("%s: AVX2 packed %d (uncertain %v), portable %d (uncertain %v)", c.name, n, unsure, gn, gUnsure)
	}
	if !reflect.DeepEqual(a.ids[:gn], g.ids[:gn]) {
		t.Fatalf("%s: AVX2 ids %v, portable %v", c.name, a.ids[:gn], g.ids[:gn])
	}
	for k := range gn {
		if math.Float32bits(a.dist[k]) != math.Float32bits(g.dist[k]) {
			t.Fatalf("%s: entry %d (id %d): AVX2 distance %x, portable %x", c.name, k, g.ids[k], math.Float32bits(a.dist[k]), math.Float32bits(g.dist[k]))
		}
	}
	if c.wantPacked >= 0 && gn != c.wantPacked {
		t.Fatalf("%s: packed %d, want %d", c.name, gn, c.wantPacked)
	}
}

// leafDists returns the portable kernel's distances for the first cnt
// points of c, with every point passing.
func leafDists(c kernelCase) []float32 {
	var st stage
	inf := float32(math.Inf(1))
	n, _ := leafPackGo(c.q, c.p, c.stride, c.ids, c.cnt, &st, inf, inf)
	return st.dist[:n]
}

// checkThresholds runs c at thresholds on, and one ulp either side of,
// distances the leaf actually produces, so lanes land exactly at sLo32
// and sHi32.
func checkThresholds(t *testing.T, r *rng.RNG, c kernelCase) {
	t.Helper()
	d := leafDists(c)
	pick := func() float32 {
		s := d[r.Intn(len(d))]
		switch r.Intn(3) {
		case 0:
			s = math.Nextafter32(s, float32(math.Inf(-1)))
		case 1:
			s = math.Nextafter32(s, float32(math.Inf(1)))
		}
		return s
	}
	for range 4 {
		c.sLo, c.sHi = pick(), pick()
		if c.sLo > c.sHi {
			c.sLo, c.sHi = c.sHi, c.sLo
		}
		checkKernelsAgree(t, c)
	}
}

// leafCase is the kernel call scanLeaf makes for leaf ni of tree and
// query point q (chunk 0).
func leafCase(tree *Tree, ni int32, q []float64) kernelCase {
	nd := &tree.nodes[ni]
	m := int(nd.end - nd.start)
	mPad := (m + 7) &^ 7
	cnt := min(mPad, leafChunk)
	q32 := make([]float32, len(q))
	for j, v := range q {
		q32[j] = float32(v)
	}
	return kernelCase{
		q: q32, p: tree.packed[tree.leafOff[ni]:], stride: mPad,
		ids: tree.order[nd.start : int(nd.start)+cnt], cnt: cnt,
		wantPacked: -1,
	}
}

// packBlock lays rows out as one padded dimension-major leaf block, as
// packLeaves does, with ids 1000+i (pad ids included).
func packBlock(rows [][]float32, dim int) (p []float32, ids []int32, cnt int) {
	cnt = (len(rows) + 7) &^ 7
	p = make([]float32, cnt*dim)
	ids = make([]int32, cnt)
	for i := range cnt {
		ids[i] = int32(1000 + i)
		for j := range dim {
			v := float32(math.Inf(1))
			if i < len(rows) {
				v = rows[i][j]
			}
			p[j*cnt+i] = v
		}
	}
	return p, ids, cnt
}

// TestLeafKernelsAgree requires the AVX2 kernel and its portable twin to
// pack the same ids and the same distance bits, with the same count and
// uncertain flag, on the leaves of real trees (single leaves of every
// size 1–256, the last leaf of Tree.order, many-leaf trees), on leaves
// holding NaN and ±Inf coordinates or queries, at thresholds on and one
// ulp either side of the leaf's own distances, and on 32-point groups
// the half-dimension checkpoint drops.
func TestLeafKernelsAgree(t *testing.T) {
	if !geom.HasAVX2FMA {
		t.Skip("no AVX2/FMA on this CPU")
	}
	r := rng.New(0x1eaf)
	dims := []int{1, 2, 3, 7, 10, 17, 32}

	t.Run("single-leaf", func(t *testing.T) {
		for m := 1; m <= 256; m++ {
			dim := dims[m%len(dims)]
			ds := clusteredDataset(uint64(m), m, dim, 1, 10)
			tree := BuildLeafSize(ds, 256)
			for trial := range 3 {
				q := ds.At(int32(r.Intn(m)))
				c := leafCase(tree, tree.root, q)
				c.name = fmt.Sprintf("m=%d d=%d trial %d", m, dim, trial)
				checkThresholds(t, r, c)
			}
		}
	})

	t.Run("many-leaves", func(t *testing.T) {
		for _, dim := range dims {
			ds := clusteredDataset(uint64(dim)+7, 2000, dim, 5, 6)
			for _, ls := range []int{5, 37, 128} {
				tree := BuildLeafSize(ds, ls)
				last := int32(-1)
				for ni := range tree.nodes {
					nd := &tree.nodes[ni]
					if nd.splitDim >= 0 {
						continue
					}
					if int(nd.end) == len(tree.order) {
						last = int32(ni)
					}
					c := leafCase(tree, int32(ni), ds.At(int32(r.Intn(ds.Len()))))
					c.name = fmt.Sprintf("d=%d leaf size %d node %d", dim, ls, ni)
					checkThresholds(t, r, c)
				}
				// The last leaf's pad lanes load ids from the spare
				// capacity past len(order).
				c := leafCase(tree, last, ds.At(tree.order[len(tree.order)-1]))
				c.name = fmt.Sprintf("d=%d leaf size %d last leaf", dim, ls)
				inf := float32(math.Inf(1))
				c.sLo, c.sHi = inf, inf
				checkKernelsAgree(t, c)
			}
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for _, dim := range dims {
			for _, m := range []int{5, 32, 45, 100} {
				rows := make([][]float32, m)
				for i := range rows {
					rows[i] = make([]float32, dim)
					for j := range rows[i] {
						rows[i][j] = float32(r.NormFloat64() * 3)
						if r.Intn(6) == 0 {
							rows[i][j] = special[r.Intn(len(special))]
						}
					}
				}
				p, ids, cnt := packBlock(rows, dim)
				for trial := range 4 {
					q := make([]float32, dim)
					for j := range q {
						q[j] = float32(r.NormFloat64() * 3)
					}
					if trial == 3 {
						q[r.Intn(dim)] = special[r.Intn(len(special))]
					}
					c := kernelCase{q: q, p: p, stride: cnt, ids: ids, cnt: cnt, sLo: 4, sHi: float32(dim) * 9, wantPacked: -1,
						name: fmt.Sprintf("d=%d m=%d trial %d", dim, m, trial)}
					checkKernelsAgree(t, c)
					c.sLo, c.sHi = float32(math.Inf(1)), float32(math.NaN())
					checkKernelsAgree(t, c)
				}
			}
		}
	})

	t.Run("half-dimension-checkpoint", func(t *testing.T) {
		// 40 points whose first half of the dimensions lies far from q
		// and whose last coordinate is NaN. The 32-point group is
		// dropped at the checkpoint, before the NaN is loaded; the
		// trailing 8-point block has no checkpoint and packs all 8 as
		// NaN, uncertain.
		for _, dim := range []int{2, 3, 10, 32} {
			rows := make([][]float32, 40)
			for i := range rows {
				rows[i] = make([]float32, dim)
				rows[i][0] = 100 + float32(i)
				rows[i][dim-1] = float32(math.NaN())
			}
			p, ids, cnt := packBlock(rows, dim)
			c := kernelCase{q: make([]float32, dim), p: p, stride: cnt, ids: ids, cnt: cnt, sLo: 1, sHi: 2, wantPacked: 8,
				name: fmt.Sprintf("d=%d", dim)}
			checkKernelsAgree(t, c)
		}
	})
}

// TestPortableKernelSameResults requires the portable kernel to give
// every Radius, RadiusLimit, RadiusBlock and MinKey answer the AVX2
// kernel gives — the same neighbours in the same order, the same cap
// cut, the same keys and counts and the same SearchStats.
func TestPortableKernelSameResults(t *testing.T) {
	if !geom.HasAVX2FMA {
		t.Skip("no AVX2/FMA on this CPU")
	}
	type answers struct {
		nbrs  [][]int32
		keys  []int32
		stats SearchStats
	}
	run := func(tree *Tree, ds *geom.Dataset, eps float64, keys, mins []int32) answers {
		var a answers
		var blk Block
		for lo := int32(0); lo < int32(ds.Len()); lo += BlockSize {
			pts := tree.Order()[lo:min(int(lo)+BlockSize, ds.Len())]
			tree.RadiusBlock(pts, eps, &blk, &a.stats)
			for k := range pts {
				a.nbrs = append(a.nbrs, append([]int32(nil), blk.Neighbors(k)...))
			}
		}
		for p := int32(0); p < int32(ds.Len()); p += 3 {
			q := ds.At(p)
			a.nbrs = append(a.nbrs, tree.Radius(q, eps, nil, &a.stats), tree.RadiusLimit(q, eps, 5, nil, &a.stats))
			key, count := tree.MinKey(q, eps, keys, mins, 4, &a.stats)
			a.keys = append(a.keys, key, int32(count))
		}
		return a
	}
	for _, dim := range []int{2, 3, 10} {
		ds := clusteredDataset(uint64(dim)^0xfa57, 1500, dim, 6, 5)
		keys := make([]int32, ds.Len())
		for i := range keys {
			keys[i] = int32(rng.Hash64(uint64(i)) % 50)
		}
		for _, ls := range []int{7, 128} {
			tree := BuildLeafSize(ds, ls)
			mins := tree.KeyMins(keys)
			// The last eps puts one pair exactly on the boundary, inside
			// the certainty band, so its leaves resolve packed entries.
			boundary := math.Sqrt(geom.SqDistD(ds.At(0), ds.At(6)))
			for _, eps := range []float64{2 * math.Sqrt(float64(dim)), 5 * math.Sqrt(float64(dim)), boundary} {
				want := run(tree, ds, eps, keys, mins)
				t.Run(fmt.Sprintf("d%d/leaf%d/eps%g", dim, ls, eps), func(t *testing.T) {
					usePortableKernel(t)
					if got := run(tree, ds, eps, keys, mins); !reflect.DeepEqual(got, want) {
						t.Fatalf("portable kernel answers differ from AVX2's (stats %+v vs %+v)", got.stats, want.stats)
					}
				})
			}
		}
	}
}
