package graph_test

import (
	"testing"

	"repro/internal/workload"
)

var normSink float64

// BenchmarkCostNorm times ‖c‖_2, the cost norm of Theorem 5 that every
// Verify and TheoremBound computes, over the edge costs of a 224² climate
// mesh.
func BenchmarkCostNorm(b *testing.B) {
	g := workload.ClimateMesh(224, 224, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normSink = g.CostNorm(2)
	}
}
