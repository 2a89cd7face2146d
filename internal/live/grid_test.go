package live

import (
	"math"
	"slices"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
	"sparkdbscan/internal/rng"
)

// scanLive is the brute-force oracle for queryLive: the base tree's
// live hits, then every live overlay slot within eps, in slot order.
func scanLive(m *Model, q []float64) []int32 {
	var out []int32
	for _, nb := range m.base.tree.Radius(q, m.p.Eps, nil, nil) {
		if !m.tomb[nb] {
			out = append(out, nb)
		}
	}
	eps2 := m.p.Eps * m.p.Eps
	for j := 0; j < m.overlayN; j++ {
		g := int32(m.base.n + j)
		if !m.tomb[g] && geom.SqDistD(q, m.at(g)) <= eps2 {
			out = append(out, g)
		}
	}
	return out
}

// gridCase is one geometry for the overlay grid's exactness tests.
type gridCase struct {
	name   string
	dim    int
	eps    float64
	offset float64 // added to every coordinate
	extent float64 // coordinates span [offset, offset+extent) per axis
}

var gridCases = []gridCase{
	{"d2", 2, 1.2, 0, 20},
	{"d1", 1, 0.7, -1e9, 30},
	{"d3-large", 3, 1.3, 1e9, 12},
	{"d16", 16, 1.5, -3.7e4, 2},
}

func (c gridCase) point(r *rng.RNG) []float64 {
	p := make([]float64, c.dim)
	for j := range p {
		p[j] = c.offset + r.Float64()*c.extent
	}
	return p
}

func gridModel(t *testing.T, c gridCase, seed uint64) *Model {
	t.Helper()
	r := rng.New(seed)
	ds := geom.NewDataset(200, c.dim)
	for i := int32(0); i < 200; i++ {
		ds.Set(i, c.point(r))
	}
	p := dbscan.Params{Eps: c.eps, MinPts: 4}
	tree := kdtree.Build(ds)
	res, err := dbscan.Run(ds, tree, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(ds, res.Labels, tree, p, Options{MaxOverlay: -1, MaxDrift: -1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// nearWall returns a copy of p moved onto (within a few ulps of) a
// cell wall of split axis a, and a partner about eps further along a,
// also nudged by a few ulps: the pairs whose membership hinges on
// rounding in both the cell coordinate and the distance test.
func nearWall(m *Model, r *rng.RNG, p []float64) (a, b []float64) {
	gr := m.base.grid
	k := r.Intn(len(gr.axes))
	ax := gr.axes[k]
	cell := geom.CellCoord(p[ax], gr.origin[k], gr.side)
	a = slices.Clone(p)
	b = slices.Clone(p)
	a[ax] = nudge(gr.origin[k]+float64(cell)*gr.side, r.Intn(5)-2)
	b[ax] = nudge(a[ax]+m.p.Eps, r.Intn(5)-2)
	return a, b
}

func nudge(v float64, ulps int) float64 {
	for ; ulps > 0; ulps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestQueryLiveMatchesScan: over seeded insert/delete streams with
// duplicates and pairs about eps apart across cell walls, the writer's
// neighbour list equals a brute-force scan of its live points, in
// content and order — so handle choice, promotions and labels are
// those the scan gave.
func TestQueryLiveMatchesScan(t *testing.T) {
	for ci, c := range gridCases {
		t.Run(c.name, func(t *testing.T) {
			m := gridModel(t, c, uint64(100+ci))
			r := rng.New(uint64(200 + ci))
			var ids []int64
			nextID := int64(1000)
			insert := func(p []float64) {
				if err := m.Insert(nextID, p); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, nextID)
				nextID++
			}
			check := func(op int, q []float64) {
				if got, want := m.queryLive(q, nil), scanLive(m, q); !slices.Equal(got, want) {
					t.Fatalf("op %d: queryLive %v, scan %v", op, got, want)
				}
			}
			for op := 0; op < 400; op++ {
				switch {
				case len(ids) > 20 && r.Float64() < 0.3:
					i := r.Intn(len(ids))
					id := ids[i]
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					if err := m.Delete(id); err != nil {
						t.Fatal(err)
					}
				case len(ids) > 0 && op%7 == 0:
					insert(slices.Clone(m.at(m.idx[ids[r.Intn(len(ids))]]))) // duplicate
				case op%3 == 0:
					a, b := nearWall(m, r, c.point(r))
					insert(a)
					insert(b)
					check(op, a)
					check(op, b)
				default:
					insert(c.point(r))
				}
				check(op, c.point(r))
				if len(ids) > 0 {
					check(op, m.at(m.idx[ids[r.Intn(len(ids))]]))
				}
			}
			for g := int32(0); int(g) < m.base.n+m.overlayN; g++ {
				check(-1, m.at(g))
			}
		})
	}
}

// TestGridQueryAnyEps: the published overlay index answers every query
// eps exactly, from a fraction of a cell to a box wider than the
// bucket table, where every bucket is visited.
func TestGridQueryAnyEps(t *testing.T) {
	c := gridCases[0]
	m := gridModel(t, c, 7)
	r := rng.New(8)
	for i := 0; i < 300; i++ {
		if err := m.Insert(int64(1000+i), c.point(r)); err != nil {
			t.Fatal(err)
		}
	}
	g := m.Pin()
	defer g.Close()
	d := g.Delta()
	for _, eps := range []float64{0, 0.3, 1.2, 4.8, 150, math.MaxFloat64} {
		for qi := 0; qi < 20; qi++ {
			q := c.point(r)
			var want []int32
			for i := int32(g.v.base.n); int(i) < g.NumPoints(); i++ {
				if geom.SqDistD(q, g.At(i)) <= eps*eps {
					want = append(want, i)
				}
			}
			if got := d.Radius(q, eps, nil, nil); !slices.Equal(got, want) {
				t.Fatalf("eps %g query %d: got %d hits, want %d", eps, qi, len(got), len(want))
			}
		}
	}
	if got := len(g.v.base.grid.near(c.point(r), 150, nil)); got != gridBuckets {
		t.Fatalf("a box wider than the table visited %d buckets, want all %d", got, gridBuckets)
	}
}

// TestGridMarginCoversRounding: q+eps can round down to a float f
// while the next float p above f still passes the distance test. With
// a cell wall between f and p (the grid's origin is p), only the query
// box's margin keeps p's cell in the visit set.
func TestGridMarginCoversRounding(t *testing.T) {
	r := rng.New(5)
	found := 0
	for i := 0; found < 20 && i < 1_000_000; i++ {
		eps := 0.5 + r.Float64()
		q := (r.Float64() - 0.5) * eps / 2
		p := math.Nextafter(q+eps, math.Inf(1))
		if geom.SqDistD([]float64{q}, []float64{p}) > eps*eps {
			continue
		}
		found++
		ds := geom.NewDataset(1, 1)
		ds.Set(0, []float64{p})
		gr := newOverlayGrid(ds, eps)
		gr.add(0, []float64{p})
		extra := []*coordChunk{{pts: make([]float64, chunkPts)}}
		extra[0].pts[0] = p
		none := func(int32) bool { return false }
		if got := gr.search([]float64{q}, eps, -1, extra, 1, none, nil, nil); !slices.Equal(got, []int32{1}) {
			t.Fatalf("q=%v eps=%v: point %v at distance <= eps not found (got %v)", q, eps, p, got)
		}
	}
	if found == 0 {
		t.Fatal("no rounding case found")
	}
}
