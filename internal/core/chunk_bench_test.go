package core

import (
	"context"
	"testing"

	"repro/internal/splitter"
	"repro/internal/workload"
)

// chunkSink keeps BenchmarkChunkSplit's pieces observable.
var chunkSink []int32

// BenchmarkChunkSplit times one Claim 4 extraction as the bin-packing
// stages make it: the default FM-refined oracle cutting a piece of target
// 0.75·‖w‖∞ off one class of a strictly balanced k = 16 coloring of a 384²
// ClimateMesh, the class given in ascending id as classLists builds it.
// The class holds about 9,200 vertices and the piece about ten. The cold
// oracle orders by BFS; the warm one is seeded with the coloring itself,
// so its frontier is the class border, as on the multilevel path.
func BenchmarkChunkSplit(b *testing.B) {
	const k = 16
	g := workload.ClimateMesh(384, 384, 3, 1)
	res, err := Decompose(context.Background(), g, Options{K: k, Multilevel: &Multilevel{}})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		b.Fatal("the coloring is not strictly balanced")
	}
	class := classLists(res.Coloring, k)[0]
	target := 0.75 * maxOf(g.Weight)
	for _, tc := range []struct {
		name string
		sp   splitter.Splitter
	}{
		{"cold", splitter.NewRefined(g, splitter.NewBFS(g))},
		{"warm", splitter.NewRefined(g, splitter.NewWarm(g, splitter.NewBFS(g), res.Coloring))},
	} {
		b.Run("oracle="+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chunkSink = tc.sp.Split(context.Background(), class, g.Weight, target)
			}
			b.ReportMetric(float64(len(chunkSink)), "piece")
		})
	}
}
