package knng

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sparkdbscan/internal/dbscan"
	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/quest"
)

// buildGolden pins both builders' graphs and the labels KNN-DBSCAN
// derives from them across code versions. The determinism tests compare
// a build only with itself; these fingerprints were recorded once and
// are compared exactly, so a change to the distance kernels, the heap
// or NN-descent's candidate order must leave every neighbour index,
// every distance bit and every label unchanged. The embed mixture is
// the d=128 regime the builders exist for; the d=37 random set leaves a
// 4-dimension block and a 1-dimension tail after the last 16-dimension
// checkpoint.
var buildGolden = map[string]string{
	"embed2k/exact":            "graph=7971021e4abdbb6ef7bf6613 labels=ca5ab2ddb37ff117b403c66a clusters=4 noise=100",
	"embed2k/nndescent/seed1":  "graph=1bdd10ec52db0609e247270d labels=ca5ab2ddb37ff117b403c66a clusters=4 noise=100",
	"embed2k/nndescent/seed42": "graph=4e22b5a5c731e462f97cc734 labels=ca5ab2ddb37ff117b403c66a clusters=4 noise=100",
	"rand37/exact":             "graph=33461611bf19c36adbd0fdde labels=424d4f112a7a824de56a3bb0 clusters=3 noise=1211",
	"rand37/nndescent/seed1":   "graph=4ce7ffb5d8f3dc029401d8e4 labels=4f8a2ad8c24422bc48aafc4b clusters=3 noise=1212",
	"rand37/nndescent/seed42":  "graph=2f1810e31a31937199191a54 labels=83305861b58ebea33ffd0c47 clusters=4 noise=1214",
}

func graphFingerprint(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	for _, j := range g.Idx {
		binary.LittleEndian.PutUint32(buf[:4], uint32(j))
		h.Write(buf[:4])
	}
	for _, d := range g.Dist {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func labelsFingerprint(res *Result) string {
	h := sha256.New()
	h.Write(int32Bytes(res.Labels))
	return fmt.Sprintf("%x clusters=%d noise=%d", h.Sum(nil)[:12], res.NumClusters, res.NumNoise)
}

func TestBuildGolden(t *testing.T) {
	spec, err := quest.EmbedByName("embed4k")
	if err != nil {
		t.Fatal(err)
	}
	embed, err := quest.GenerateEmbedding(spec.Scaled(2000))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		ds   *geom.Dataset
		p    dbscan.Params
	}{
		{"embed2k", embed, dbscan.Params{Eps: spec.Eps, MinPts: spec.MinPts}},
		{"rand37", randomDataset(t, 1500, 37, 37), dbscan.Params{Eps: 170, MinPts: 8}},
	}
	const k = 16
	for _, in := range inputs {
		graphs := []struct {
			name  string
			build func() (*Graph, error)
		}{
			{"exact", func() (*Graph, error) { return BuildExact(in.ds, k, 2) }},
			{"nndescent/seed1", func() (*Graph, error) { return BuildNNDescent(in.ds, k, ApproxOptions{Seed: 1, Workers: 2}) }},
			{"nndescent/seed42", func() (*Graph, error) { return BuildNNDescent(in.ds, k, ApproxOptions{Seed: 42, Workers: 2}) }},
		}
		for _, gb := range graphs {
			g, err := gb.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := DBSCAN(g, in.p, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			key := in.name + "/" + gb.name
			got := "graph=" + graphFingerprint(g) + " labels=" + labelsFingerprint(res)
			if want := buildGolden[key]; got != want {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want)
			}
		}
	}
}
