package main

import (
	"fmt"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/quest"
	"sparkdbscan/internal/rng"
)

// The benchmark's inputs are a pure function of its --seed: every
// generator below draws from a seed derived from it, one per purpose.
const (
	streamMixture = iota + 1
	streamQueries
	streamChurn
	streamEmbed
	streamKNN
)

// mixtureShapeSeed fixes which cluster each drawn point belongs to.
const mixtureShapeSeed = 0xc100c1

// derive returns the seed of one input stream.
func derive(seed uint64, stream int) uint64 {
	s := seed ^ uint64(stream)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&s)
}

// mixtureParams are the paper's Table I parameters for the Quest
// mixtures.
var mixtureParams = dbscan.Params{Eps: quest.TableIEps, MinPts: quest.TableIMinPts}

// mixture is the c100k Quest mixture (n=102,400, d=10, 100 clusters,
// 2% uniform noise): its cluster centres and sizes, recovered from the
// preset's own draw. The benchmark's seed drives which points are drawn
// from it, not where the clusters sit, so every seed poses the same
// problem and run-to-run differences come from the program and the
// host rather than from cluster placement.
type mixture struct {
	spec    quest.Spec
	centres [][]float64 // indexed by cluster
	// members lists the cluster of every clustered point of the preset's
	// draw; picking one uniformly picks a cluster in proportion to its
	// size.
	members []int32
}

func newMixture(rec *recorder, s spanRef) (*mixture, error) {
	spec, err := quest.ByName("c100k")
	if err != nil {
		return nil, err
	}
	var ds *geom.Dataset
	rec.do("quest.generate", s, func(spanRef) { ds, err = quest.Generate(spec) })
	if err != nil {
		return nil, err
	}
	m := &mixture{spec: spec, centres: make([][]float64, spec.NumClusters)}
	counts := make([]int, spec.NumClusters)
	for c := range m.centres {
		m.centres[c] = make([]float64, ds.Dim)
	}
	for i := int32(0); i < int32(ds.Len()); i++ {
		c := ds.Label[i]
		if c == quest.NoiseLabel {
			continue
		}
		m.members = append(m.members, c)
		for j, x := range ds.At(i) {
			m.centres[c][j] += x
		}
		counts[c]++
	}
	if len(m.members) == 0 {
		return nil, fmt.Errorf("perfbench: the c100k preset drew no clustered points")
	}
	for c, sum := range m.centres {
		for j := range sum {
			sum[j] /= float64(counts[c])
		}
	}
	return m, nil
}

// draw returns n points of the mixture, with their clusters in Label.
// Which cluster each point belongs to (or whether it is uniform noise
// over the domain, at the spec's noise fraction) follows one fixed
// sequence; where it lies — its cluster's centre plus Gaussian noise of
// the spec's spread, or its uniform position — is drawn under seed. The
// first two points are the domain's corners (noise). So every seed
// poses the same problem: the same bounding box, and a sample taken by
// index, as the cell planner takes one, meets the same clusters.
func (m *mixture) draw(n int, seed uint64) *geom.Dataset {
	shape, r := rng.New(mixtureShapeSeed), rng.New(seed)
	ds := geom.NewDataset(n, m.spec.Dim)
	ds.Label = make([]int32, n)
	buf := make([]float64, m.spec.Dim)
	span := m.spec.DomainMax - m.spec.DomainMin
	for i := int32(0); i < int32(n); i++ {
		switch {
		case i < 2:
			for j := range buf {
				buf[j] = m.spec.DomainMin + float64(i)*span
			}
			ds.Label[i] = quest.NoiseLabel
		case shape.Float64() < m.spec.NoiseFrac:
			for j := range buf {
				buf[j] = m.spec.DomainMin + r.Float64()*span
			}
			ds.Label[i] = quest.NoiseLabel
		default:
			c := m.members[shape.Intn(len(m.members))]
			for j := range buf {
				buf[j] = m.centres[c][j] + r.NormFloat64()*m.spec.StdDev
			}
			ds.Label[i] = c
		}
		ds.Set(i, buf)
	}
	return ds
}

// embedSpec is the d=128 embedding mixture at n=10k, drawn under the
// benchmark's seed.
func embedSpec(seed uint64) quest.EmbedSpec {
	spec, err := quest.EmbedByName("embed20k")
	if err != nil {
		panic(err) // embed20k is a preset
	}
	spec = spec.Scaled(10_000)
	spec.Seed = derive(seed, streamEmbed)
	return spec
}

// churnOp is one mutation of a live model.
type churnOp struct {
	del bool
	id  int64
	pt  []float64
}

// churn is the seeded 70/30 insert/delete stream: an insert adds a
// point of the query bank under a fresh id, a delete removes a
// uniformly chosen live point (base or inserted), so both promotions
// and demotions occur.
type churn struct {
	r      *rng.RNG
	bank   *geom.Dataset
	live   []int64
	nextID int64
}

func newChurn(seed uint64, baseN int, bank *geom.Dataset) *churn {
	live := make([]int64, baseN)
	for i := range live {
		live[i] = int64(i)
	}
	return &churn{r: rng.New(seed), bank: bank, live: live, nextID: int64(baseN)}
}

// next returns the stream's next operation and updates the live set as
// if it had been applied.
func (c *churn) next() churnOp {
	if c.r.Float64() < 0.3 && len(c.live) > 0 {
		k := c.r.Intn(len(c.live))
		id := c.live[k]
		c.live[k] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		return churnOp{del: true, id: id}
	}
	id := c.nextID
	c.nextID++
	c.live = append(c.live, id)
	return churnOp{id: id, pt: c.bank.At(int32(c.r.Intn(c.bank.Len())))}
}
