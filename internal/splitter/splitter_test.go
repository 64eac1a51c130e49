package splitter

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	return b.MustBuild()
}

func randWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()*5 + 0.01
	}
	return w
}

func allVerts(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

func TestBestPrefixWindow(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	order := []int32{0, 1, 2, 3}
	for _, target := range []float64{0, 0.4, 3, 5.5, 9.9, 10, 15, -3} {
		U := BestPrefix(order, w, target)
		if !CheckWindow(U, order, w, target) {
			t.Fatalf("target %v: window violated, |U| = %d", target, len(U))
		}
	}
}

func TestBestPrefixIsPrefix(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1}
	order := []int32{4, 2, 0, 1, 3}
	U := BestPrefix(order, w, 2)
	if len(U) != 2 || U[0] != 4 || U[1] != 2 {
		t.Fatalf("U = %v, want prefix [4 2]", U)
	}
}

func TestBFSOrderCoversW(t *testing.T) {
	g := pathGraph(10)
	W := []int32{0, 1, 2, 5, 6, 9}
	order := BFSOrder(g, W)
	if len(order) != len(W) {
		t.Fatalf("order covers %d, want %d", len(order), len(W))
	}
	seen := map[int32]bool{}
	for _, v := range order {
		seen[v] = true
	}
	for _, v := range W {
		if !seen[v] {
			t.Fatalf("vertex %d missing from order", v)
		}
	}
}

// TestBFSOrderAllocations pins BFSOrder's allocations to a constant: the
// sorted copy, the Sub view, and the output, however many components G[W]
// has, and their bytes to O(|W|), however large the graph. Ordering
// component by component with a visited map, a fresh traversal scratch and
// a |W|-capacity slice per component cost thousands of objects (and
// megabytes) on the first W; an N-long membership mask per view cost more
// bytes than the second W's whole order.
func TestBFSOrderAllocations(t *testing.T) {
	g := pathGraph(4000)
	var W []int32 // the even ids: 2000 isolated components
	for v := int32(3998); v >= 0; v -= 2 {
		W = append(W, v)
	}
	order := BFSOrder(g, W)
	if len(order) != len(W) || order[0] != 0 || order[len(order)-1] != 3998 {
		t.Fatalf("order of %d vertices from %d to %d, want %d from 0 to 3998", len(order), order[0], order[len(order)-1], len(W))
	}
	if got := testing.AllocsPerRun(20, func() { BFSOrder(g, W) }); got > 6 {
		t.Fatalf("BFSOrder allocates %.1f objects per call on 2000 components, want ≤ 6", got)
	}

	if raceEnabled {
		return // the race detector's pool drops workspaces; see raceEnabled
	}
	const n = 1 << 16
	big := pathGraph(n)
	small := make([]int32, 16) // a 16-vertex W in the middle of the path
	for i := range small {
		small[i] = n/2 + int32(i)
	}
	if got := BFSOrder(big, small); len(got) != len(small) || got[0] != small[0] {
		t.Fatalf("order %v of the small W, want the path from %d", got, small[0])
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BFSOrder(big, small)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= n {
		t.Fatalf("BFSOrder allocates %d bytes per call on a 16-vertex W, want < N = %d", got, n)
	}
}

func TestOrderedPrefixWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		gr := grid.MustBox(3+rng.Intn(7), 3+rng.Intn(7))
		g := gr.G
		for _, s := range []Splitter{NewBFS(g), NewByID(g)} {
			w := randWeights(rng, g.N())
			var W []int32
			for v := int32(0); v < int32(g.N()); v++ {
				if rng.Intn(4) > 0 {
					W = append(W, v)
				}
			}
			if len(W) == 0 {
				continue
			}
			total := 0.0
			for _, v := range W {
				total += w[v]
			}
			target := rng.Float64() * total
			U := s.Split(context.Background(), W, w, target)
			if !CheckWindow(U, W, w, target) {
				t.Fatalf("trial %d: window violated", trial)
			}
			// U ⊆ W.
			inW := map[int32]bool{}
			for _, v := range W {
				inW[v] = true
			}
			for _, v := range U {
				if !inW[v] {
					t.Fatalf("U contains %d ∉ W", v)
				}
			}
		}
	}
}

func TestBFSPrefixBeatsIDOnShuffledGrid(t *testing.T) {
	// On a grid whose vertex ids are row-major, ID order is already good;
	// BFS should be comparable. This is a smoke check that BFS boundary is
	// not pathological.
	gr := grid.MustBox(12, 12)
	g := gr.G
	w := make([]float64, g.N())
	for i := range w {
		w[i] = 1
	}
	W := allVerts(g.N())
	ub := BFSOrder(g, W)
	U := BestPrefix(ub, w, 72)
	cost := g.BoundaryCostOf(U)
	if cost > 40 { // a 12×12 grid halves with ≤ 12 cut edges ideally
		t.Fatalf("BFS prefix boundary cost %v is pathological", cost)
	}
}

func TestRefinedImprovesOrKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		gr := grid.MustBox(6+rng.Intn(5), 6+rng.Intn(5))
		g := gr.G
		gr.SetCosts(func(u, v grid.Point) float64 { return rng.Float64()*9 + 1 })
		w := randWeights(rng, g.N())
		W := allVerts(g.N())
		total := 0.0
		for _, v := range W {
			total += w[v]
		}
		target := total * (0.3 + 0.4*rng.Float64())
		base := NewByID(g)
		refined := NewRefined(g, base)

		U0 := base.Split(context.Background(), W, w, target)
		U1 := refined.Split(context.Background(), W, w, target)
		if !CheckWindow(U1, W, w, target) {
			t.Fatalf("trial %d: refined window violated", trial)
		}
		in0 := make([]bool, g.N())
		for _, v := range U0 {
			in0[v] = true
		}
		in1 := make([]bool, g.N())
		for _, v := range U1 {
			in1[v] = true
		}
		c0 := boundaryCostWithin(g, W, in0)
		c1 := boundaryCostWithin(g, W, in1)
		if c1 > c0+1e-9 {
			t.Fatalf("trial %d: refinement worsened cut %v -> %v", trial, c0, c1)
		}
	}
}

// boundaryCostWithin returns ∂_W U: the cost of the edges of G[W] with
// exactly one endpoint in U, for U ⊆ W given as a mask over vertex ids.
func boundaryCostWithin(g *graph.Graph, W []int32, inU []bool) float64 {
	inW := make([]bool, g.N())
	for _, v := range W {
		inW[v] = true
	}
	t := 0.0
	for _, v := range W {
		if !inU[v] {
			continue
		}
		for _, e := range g.IncidentEdges(v) {
			if o := g.Other(e, v); inW[o] && !inU[o] {
				t += g.Cost[e]
			}
		}
	}
	return t
}

func TestGridAdapterWindowAndQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gr := grid.MustBox(10, 10)
	gr.SetCosts(func(u, v grid.Point) float64 { return math.Exp(rng.Float64() * 6) })
	s := NewGrid(gr)
	w := randWeights(rng, gr.G.N())
	W := allVerts(gr.G.N())
	total := 0.0
	for _, v := range W {
		total += w[v]
	}
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		U := s.Split(context.Background(), W, w, frac*total)
		if !CheckWindow(U, W, w, frac*total) {
			t.Fatal("grid adapter window violated")
		}
	}
}

func TestRefinedEmptyAndFullTargets(t *testing.T) {
	g := pathGraph(6)
	r := NewRefined(g, NewBFS(g))
	W := allVerts(6)
	w := g.Weight
	if U := r.Split(context.Background(), W, w, 0); len(U) != 0 {
		t.Fatalf("target 0 gave %v", U)
	}
	if U := r.Split(context.Background(), W, w, 6); len(U) != 6 {
		t.Fatalf("target total gave %d vertices", len(U))
	}
}
