package knng

import (
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/quest"
)

// benchEmbed is the embed4k mixture scaled to n=2000 (d=128), the
// regime both builders exist for.
func benchEmbed(b *testing.B) *geom.Dataset {
	b.Helper()
	spec, err := quest.EmbedByName("embed4k")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := quest.GenerateEmbedding(spec.Scaled(2000))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkBuildNNDescent(b *testing.B) {
	ds := benchEmbed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNNDescent(ds, 16, ApproxOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildExact(b *testing.B) {
	ds := benchEmbed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildExact(ds, 16, 0); err != nil {
			b.Fatal(err)
		}
	}
}
