//go:build amd64

package kdtree_test

import (
	"testing"

	"sparkdbscan/internal/geom"
	"sparkdbscan/internal/kdtree"
)

// TestContractsOnPortableKernel reruns the Radius, RadiusLimit,
// RadiusBlock, MinKey and LeafOrdered contract tests with the AVX2 kernels switched
// off, so an amd64 run also executes the portable paths other
// architectures use. It must not run in parallel: it flips a global.
func TestContractsOnPortableKernel(t *testing.T) {
	if !geom.HasAVX2FMA {
		t.Skip("no AVX2/FMA: every other test already runs the portable kernels")
	}
	geom.HasAVX2FMA = false
	t.Cleanup(func() { geom.HasAVX2FMA = true })
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"IndexContractAgreement", TestIndexContractAgreement},
		{"RadiusLimitCaps", TestRadiusLimitCaps},
		{"LeafOrderedAnswersMapThroughOrder", TestLeafOrderedAnswersMapThroughOrder},
		{"RadiusMatchesBruteForce", kdtree.TestRadiusMatchesBruteForce},
		{"RadiusLimit", kdtree.TestRadiusLimit},
		{"PackedTreeEquivalenceAcrossLeafSizes", kdtree.TestPackedTreeEquivalenceAcrossLeafSizes},
		{"RadiusBlockMatchesBruteForce", kdtree.TestRadiusBlockMatchesBruteForce},
		{"MinKeyMatchesBruteForce", kdtree.TestMinKeyMatchesBruteForce},
		{"ExactPathBoundaryPairs", kdtree.TestExactPathBoundaryPairs},
	} {
		t.Run(tc.name, tc.test)
	}
}
