package splitter

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// priorHalves colors the left half of an n-vertex path/grid id space 0 and
// the right half 1 — a prior with one frontier in the middle.
func priorHalves(n int) []int32 {
	prior := make([]int32, n)
	for v := n / 2; v < n; v++ {
		prior[v] = 1
	}
	return prior
}

func TestWarmOrderCoversWOnce(t *testing.T) {
	gr := grid.MustBox(9, 7)
	g := gr.G
	prior := priorHalves(g.N())
	// W mixes both prior classes and a detached tail, in scrambled order.
	W := []int32{40, 3, 17, 30, 29, 2, 61, 5, 16, 62, 41, 28}
	order := warmOrder(g, prior, W)
	if order == nil {
		t.Fatal("frontier-bearing W produced no warm order")
	}
	if len(order) != len(W) {
		t.Fatalf("order covers %d vertices, want %d", len(order), len(W))
	}
	seen := map[int32]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice", v)
		}
		seen[v] = true
	}
	for _, v := range W {
		if !seen[v] {
			t.Fatalf("vertex %d missing from order", v)
		}
	}
	// Pure function of (g, prior, W): repeated calls agree exactly.
	again := warmOrder(g, prior, W)
	for i := range order {
		if order[i] != again[i] {
			t.Fatalf("order differs between calls at %d: %d vs %d", i, order[i], again[i])
		}
	}
}

func TestWarmOrderStartsAtFrontier(t *testing.T) {
	g := pathGraph(16)
	prior := priorHalves(16) // frontier edge 7–8
	W := allVerts(16)
	order := warmOrder(g, prior, W)
	if order == nil {
		t.Fatal("no warm order")
	}
	if first := order[0]; first != 7 && first != 8 {
		t.Fatalf("order starts at %d, want a frontier vertex (7 or 8)", first)
	}
}

func TestWarmFallsBackWithoutFrontier(t *testing.T) {
	g := pathGraph(12)
	prior := make([]int32, 12) // one class: no frontier anywhere
	warm := NewWarm(g, NewBFS(g), prior)
	w := make([]float64, 12)
	for i := range w {
		w[i] = 1
	}
	W := allVerts(12)
	U := warm.Split(context.Background(), W, w, 6)
	if warm.Hits() != 0 {
		t.Fatalf("frontier-free split counted %d warm hits", warm.Hits())
	}
	cold := NewBFS(g).Split(context.Background(), W, w, 6)
	if len(U) != len(cold) {
		t.Fatalf("fallback |U| = %d, inner's %d", len(U), len(cold))
	}
	for i := range U {
		if U[i] != cold[i] {
			t.Fatalf("fallback differs from inner at %d", i)
		}
	}
}

func TestWarmSplitMeetsWindowAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gr := grid.MustBox(8, 8)
	g := gr.G
	prior := priorHalves(g.N())
	warm := NewWarm(g, NewBFS(g), prior)
	w := randWeights(rng, g.N())
	W := allVerts(g.N())
	total := 0.0
	for _, v := range W {
		total += w[v]
	}
	U := warm.Split(context.Background(), W, w, total/2)
	if !CheckWindow(U, W, w, total/2) {
		t.Fatal("warm split violated the Definition 3 window")
	}
	if warm.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", warm.Hits())
	}
	// Cancelled contexts short-circuit before ordering work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := warm.Split(ctx, W, w, total/2); got != nil {
		t.Fatal("cancelled split returned a piece")
	}
	if warm.Hits() != 1 {
		t.Fatalf("cancelled split changed hits to %d", warm.Hits())
	}
}
