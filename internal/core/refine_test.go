package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// reweight returns a clone of g with every weight in columns [0, cols/2)
// scaled by f — a crude model of the day/night band moving.
func reweight(g *graph.Graph, rows, cols int, f float64) *graph.Graph {
	h := g.Clone()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols/2; c++ {
			h.Weight[r*cols+c] *= f
		}
	}
	return h
}

func TestRefineIdenticalWeightsIsPolishOnly(t *testing.T) {
	g := workload.ClimateMesh(24, 24, 4, 3)
	opt := Options{K: 8, Parallelism: 1}
	full, err := Decompose(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Refine(context.Background(), g, opt, full.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The prior coloring is already strictly balanced, so the resumed run
	// must skip the splitting-oracle stages entirely.
	if ref.Diag.SplitterCalls != 0 {
		t.Fatalf("refine of an already-strict coloring made %d oracle calls, want 0",
			ref.Diag.SplitterCalls)
	}
	if !ref.Stats.StrictlyBalanced {
		t.Fatal("refined coloring not strictly balanced")
	}
	if ref.Stats.MaxBoundary > full.Stats.MaxBoundary+1e-9 {
		t.Fatalf("refine worsened the boundary: %v > %v",
			ref.Stats.MaxBoundary, full.Stats.MaxBoundary)
	}
}

func TestRefineAfterWeightDrift(t *testing.T) {
	const rows, cols, k = 32, 32, 8
	g := workload.ClimateMesh(rows, cols, 4, 5)
	opt := Options{K: k, Parallelism: 1}
	full, err := Decompose(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}

	h := reweight(g, rows, cols, 2.5)
	ref, err := Refine(context.Background(), h, opt, full.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stats.StrictlyBalanced {
		t.Fatal("refined coloring not strictly balanced under drifted weights")
	}

	scratch, err := Decompose(context.Background(), h, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run must be much cheaper in oracle calls than a fresh
	// pipeline (it skips the Proposition 7 recursion) …
	if scratch.Diag.SplitterCalls > 0 && ref.Diag.SplitterCalls >= scratch.Diag.SplitterCalls {
		t.Fatalf("refine made %d oracle calls, scratch %d — no saving",
			ref.Diag.SplitterCalls, scratch.Diag.SplitterCalls)
	}
	// … while staying in the same boundary-quality regime. The polish pass
	// only shrinks constants, so allow a generous constant factor.
	if ref.Stats.MaxBoundary > 2*scratch.Stats.MaxBoundary {
		t.Fatalf("refined boundary %v far worse than scratch %v",
			ref.Stats.MaxBoundary, scratch.Stats.MaxBoundary)
	}
	// Migration should be partial: the drift touches half the mesh, but the
	// rebalance moves surplus pieces only, never repaints everything.
	moved := 0
	for v := range ref.Coloring {
		if ref.Coloring[v] != full.Coloring[v] {
			moved++
		}
	}
	if moved == h.N() {
		t.Fatal("refine repainted every vertex — not incremental")
	}
}

func TestRefineValidation(t *testing.T) {
	g := workload.ClimateMesh(8, 8, 2, 1)
	good := make([]int32, g.N())
	if _, err := Refine(context.Background(), g, Options{K: 0}, good, nil); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Refine(context.Background(), g, Options{K: 2}, good[:10], nil); err == nil {
		t.Fatal("short coloring accepted")
	}
	bad := slices.Clone(good)
	bad[3] = 7
	if _, err := Refine(context.Background(), g, Options{K: 2}, bad, nil); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	if _, err := Refine(context.Background(), g, Options{K: 2, P: 0.5}, good, nil); err == nil {
		t.Fatal("invalid P accepted")
	}
	ms := [][]float64{make([]float64, g.N())}
	if _, err := Refine(context.Background(), g, Options{K: 2, Measures: ms}, good, nil); err == nil {
		t.Fatal("Measures accepted — Refine cannot preserve multi-balance")
	}
	for _, v := range []int32{-1, int32(g.N())} {
		if _, err := Refine(context.Background(), g, Options{K: 2}, good, []int32{0, v}); err == nil {
			t.Fatalf("out-of-range dirty vertex %d accepted", v)
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	g := workload.ClimateMesh(20, 20, 3, 9)
	opt := Options{K: 6, Parallelism: 1}
	full, err := Decompose(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := reweight(g, 20, 20, 3)
	a, err := Refine(context.Background(), h, opt, full.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Refine(context.Background(), h, Options{K: 6, Parallelism: 4}, full.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Coloring, b.Coloring) {
		t.Fatal("Refine not deterministic across parallelism levels")
	}
}
