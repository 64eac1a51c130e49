package graph

import (
	"fmt"
	"testing"
)

// benchSub builds a rows×cols mesh view over a W covering roughly half the
// vertices (a contiguous band, so BFS and component structure are
// non-trivial), the shape the recursion's oracle calls see.
func benchSub(b *testing.B, rows, cols int) *Sub {
	b.Helper()
	bld := NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			bld.SetWeight(id(r, c), 1+float64((r+c)%4))
			if c+1 < cols {
				bld.AddEdge(id(r, c), id(r, c+1), 1+float64(c%3))
			}
			if r+1 < rows {
				bld.AddEdge(id(r, c), id(r+1, c), 1+float64(r%5))
			}
		}
	}
	g := bld.MustBuild()
	var W []int32
	for r := rows / 4; r < 3*rows/4; r++ {
		for c := 0; c < cols; c++ {
			W = append(W, id(r, c))
		}
	}
	return NewSub(g, W)
}

// BenchmarkSubTraversal measures the hot-loop traversals of Sub. These run
// once per splitting-oracle call inside the decomposition recursion; the
// epoch-stamped scratch buffers replaced one map allocation per call, and
// the allocs/op column is the witness (BFSOrder/Components allocate only
// their output).
func BenchmarkSubTraversal(b *testing.B) {
	for _, side := range []int{64, 128} {
		s := benchSub(b, side, side)
		start := s.Verts[0]
		b.Run(fmt.Sprintf("BFSOrder/%dx%d", side, side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.MultiBFSOrder(nil, []int32{start}); len(got) == 0 {
					b.Fatal("empty order")
				}
			}
		})
		b.Run(fmt.Sprintf("Components/%dx%d", side, side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Components(); len(got) == 0 {
					b.Fatal("no components")
				}
			}
		})
		b.Run(fmt.Sprintf("InducedCopy/%dx%d", side, side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _ := s.InducedCopy()
				if g.N() != len(s.Verts) {
					b.Fatal("bad copy")
				}
			}
		})
	}
}
