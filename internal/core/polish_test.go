package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/splitter"
)

func TestPolishPreservesStrictBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		gr, g := gridGraph(t, 12, 12)
		if trial%2 == 1 {
			randomizeWeights(rng, g, 2)
		}
		c := testCtx(g, gr, 2)
		k := 2 + rng.Intn(10)
		chi := c.binPack2(c.chunkedGreedy(make([]int32, g.N()), k), k)
		if !graph.IsStrictlyBalanced(g, chi, k) {
			chi = c.chunkedGreedy(chi, k)
		}
		before := graph.Stats(g, chi, k)
		out := c.polish(chi, k, 4, nil)
		after := graph.Stats(g, out, k)
		if !after.StrictlyBalanced {
			t.Fatalf("trial %d: polish broke strict balance (dev %v bound %v)",
				trial, after.MaxWeightDeviation, after.StrictBound)
		}
		if after.MaxBoundary > before.MaxBoundary+1e-9 {
			t.Fatalf("trial %d: polish worsened max boundary %v -> %v",
				trial, before.MaxBoundary, after.MaxBoundary)
		}
	}
}

func TestPolishImprovesScatteredColoring(t *testing.T) {
	// A random scattered coloring has a terrible boundary; polish with
	// uniform weights can only use swaps — they must still help.
	gr, g := gridGraph(t, 10, 10)
	c := testCtx(g, gr, 2)
	k := 4
	rng := rand.New(rand.NewSource(7))
	chi := make([]int32, g.N())
	per := g.N() / k
	perm := rng.Perm(g.N())
	for i, v := range perm {
		cls := i / per
		if cls >= k {
			cls = k - 1
		}
		chi[v] = int32(cls)
	}
	if !graph.IsStrictlyBalanced(g, chi, k) {
		t.Skip("random permutation unexpectedly unbalanced")
	}
	before := graph.Stats(g, chi, k)
	out := c.polish(chi, k, 8, nil)
	after := graph.Stats(g, out, k)
	if !after.StrictlyBalanced {
		t.Fatal("polish broke strict balance")
	}
	if after.MaxBoundary >= before.MaxBoundary {
		t.Fatalf("swap polish made no progress: %v -> %v",
			before.MaxBoundary, after.MaxBoundary)
	}
}

func TestPolishNoopCases(t *testing.T) {
	gr, g := gridGraph(t, 4, 4)
	c := testCtx(g, gr, 2)
	chi := make([]int32, g.N())
	out := c.polish(chi, 1, 3, nil) // k=1
	for i := range out {
		if out[i] != chi[i] {
			t.Fatal("k=1 polish changed coloring")
		}
	}
	out = c.polish(chi, 4, 0, nil) // zero rounds
	for i := range out {
		if out[i] != chi[i] {
			t.Fatal("0-round polish changed coloring")
		}
	}
}

func TestDecomposeSkipPolish(t *testing.T) {
	gr, g := gridGraph(t, 16, 16)
	with, err := Decompose(context.Background(), g, Options{K: 8, Splitter: splitter.NewGrid(gr)})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Decompose(context.Background(), g, Options{K: 8, Splitter: splitter.NewGrid(gr), SkipPolish: true})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Stats.StrictlyBalanced || !without.Stats.StrictlyBalanced {
		t.Fatal("strictness lost")
	}
	if with.Stats.MaxBoundary > without.Stats.MaxBoundary+1e-9 {
		t.Fatalf("polish made things worse: %v vs %v",
			with.Stats.MaxBoundary, without.Stats.MaxBoundary)
	}
}

func TestDecomposePaperShrinkEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gr, g := gridGraph(t, 20, 20)
	randomizeWeights(rng, g, 0.3)
	res, err := Decompose(context.Background(), g, Options{K: 5, Splitter: splitter.NewGrid(gr), PaperShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("paper-shrink pipeline lost strictness")
	}
}

func TestDecomposeWithExtraMeasures(t *testing.T) {
	// Section 7 multi-balanced extension: extra measures stay weakly
	// balanced while the weights stay strictly balanced.
	rng := rand.New(rand.NewSource(43))
	gr, g := gridGraph(t, 16, 16)
	mem := make([]float64, g.N())
	for i := range mem {
		mem[i] = rng.ExpFloat64()
	}
	k := 8
	res, err := Decompose(context.Background(), g, Options{K: k, Splitter: splitter.NewGrid(gr), Measures: [][]float64{mem}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("not strict with extra measures")
	}
	per := g.ClassMeasure(res.Coloring, k, mem)
	avg := 0.0
	for _, x := range mem {
		avg += x
	}
	avg /= float64(k)
	mx := 0.0
	for _, x := range mem {
		if x > mx {
			mx = x
		}
	}
	if graph.MaxOf(per) > 4*avg+16*mx {
		t.Fatalf("extra measure unbalanced: max %v avg %v", graph.MaxOf(per), avg)
	}
}

// rebalance's heavy path with a dynamic measure: force a heavy color and
// check the dynamic hook is invoked and the result remains a partition.
func TestRebalanceDynamicMeasureHook(t *testing.T) {
	gr, g := gridGraph(t, 12, 12)
	c := testCtx(g, gr, 2)
	k := 6
	chi := make([]int32, g.N()) // all color 0 — maximally heavy
	psi := append([]float64(nil), g.Weight...)
	calls := 0
	dynamic := func(vin []int32) []float64 {
		calls++
		return make([]float64, g.N())
	}
	out := c.rebalance(chi, k, psi, nil, dynamic)
	if err := graph.CheckColoring(out, k); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("dynamic measure hook never invoked on a heavy instance")
	}
}
