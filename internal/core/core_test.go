package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/measure"
	"repro/internal/splitter"
)

func gridGraph(t testing.TB, nx, ny int) (*grid.Grid, *graph.Graph) {
	t.Helper()
	gr := grid.MustBox(nx, ny)
	return gr, gr.G
}

func testCtx(g *graph.Graph, gr *grid.Grid, p float64) *ctx {
	var sp splitter.Splitter
	if gr != nil {
		sp = splitter.NewGrid(gr)
	} else {
		sp = splitter.NewRefined(g, splitter.NewBFS(g))
	}
	return &ctx{g: g, sp: sp, p: p, pi: measure.SplittingCostPar(g, p, 1, 1)}
}

func randomizeWeights(rng *rand.Rand, g *graph.Graph, spread float64) {
	for v := range g.Weight {
		g.Weight[v] = 0.1 + rng.Float64()*spread
	}
}

// ---------- Lemma 8 (twoColor) ----------

func TestTwoColorSingleMeasure(t *testing.T) {
	gr, g := gridGraph(t, 8, 8)
	c := testCtx(g, gr, 2)
	W := graph.AllVertices(g)
	halves := c.twoColor(W, [][]float64{g.Weight})
	if len(halves[0])+len(halves[1]) != g.N() {
		t.Fatalf("halves cover %d, want %d", len(halves[0])+len(halves[1]), g.N())
	}
	w0 := sumOver(g.Weight, halves[0])
	w1 := sumOver(g.Weight, halves[1])
	if math.Abs(w0-w1) > maxOf(g.Weight)+1e-9 {
		t.Fatalf("single-measure halves unbalanced: %v vs %v", w0, w1)
	}
}

func TestTwoColorMultiMeasureBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		gr, g := gridGraph(t, 8, 8)
		c := testCtx(g, gr, 2)
		// Three measures: weights, π, and a random measure.
		m1 := append([]float64(nil), g.Weight...)
		m2 := c.pi
		m3 := make([]float64, g.N())
		for i := range m3 {
			m3[i] = rng.Float64()
		}
		ms := [][]float64{m1, m2, m3}
		W := graph.AllVertices(g)
		halves := c.twoColor(W, ms)
		// Lemma 8: Φ⁽ʲ⁾ of each side ≤ 3/4·(Φ⁽ʲ⁾(W) + 2^{r−j}‖Φ⁽ʲ⁾‖∞).
		r := len(ms)
		for j, m := range ms {
			bound := 0.75 * (sumOver(m, W) + math.Pow(2, float64(r-j-1))*maxOf(m))
			for b := 0; b < 2; b++ {
				if got := sumOver(m, halves[b]); got > bound+1e-9 {
					t.Fatalf("trial %d: measure %d side %d = %v > bound %v",
						trial, j, b, got, bound)
				}
			}
		}
		// Φ⁽¹⁾ gets the stronger 1/2·(Φ(W) + 2^{r−1}‖Φ‖∞) guarantee.
		strong := 0.5 * (sumOver(m1, W) + math.Pow(2, float64(r-1))*maxOf(m1))
		for b := 0; b < 2; b++ {
			if got := sumOver(m1, halves[b]); got > strong+1e-9 {
				t.Fatalf("trial %d: Φ⁽¹⁾ side %d = %v > strong bound %v", trial, b, got, strong)
			}
		}
	}
}

func TestTwoColorPartition(t *testing.T) {
	gr, g := gridGraph(t, 5, 7)
	c := testCtx(g, gr, 2)
	W := graph.AllVertices(g)
	halves := c.twoColor(W, [][]float64{g.Weight, c.pi})
	seen := make(map[int32]int)
	for b := 0; b < 2; b++ {
		for _, v := range halves[b] {
			seen[v]++
		}
	}
	if len(seen) != g.N() {
		t.Fatalf("parts cover %d vertices, want %d", len(seen), g.N())
	}
	for v, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("vertex %d appears %d times", v, cnt)
		}
	}
}

func TestTwoColorEmptyAndTrivial(t *testing.T) {
	gr, g := gridGraph(t, 3, 3)
	c := testCtx(g, gr, 2)
	empty := c.twoColor(nil, [][]float64{g.Weight})
	if len(empty[0]) != 0 || len(empty[1]) != 0 {
		t.Fatal("empty W should give empty halves")
	}
	single := c.twoColor([]int32{3}, [][]float64{g.Weight})
	if len(single[0])+len(single[1]) != 1 {
		t.Fatal("singleton W mishandled")
	}
	noMeasures := c.twoColor([]int32{1, 2}, nil)
	if len(noMeasures[0])+len(noMeasures[1]) != 2 {
		t.Fatal("r=0 mishandled")
	}
}

// ---------- Lemma 9 (rebalance) ----------

func TestRebalanceBalancesPsi(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		gr, g := gridGraph(t, 12, 12)
		randomizeWeights(rng, g, 3)
		c := testCtx(g, gr, 2)
		k := 2 + rng.Intn(14)
		// Start from the worst coloring: everything in class 0.
		chi := make([]int32, g.N())
		psi := append([]float64(nil), g.Weight...)
		chiHat := c.rebalance(chi, k, psi, nil, nil)
		if err := graph.CheckColoring(chiHat, k); err != nil {
			t.Fatal(err)
		}
		ct := measure.Measure(psi).ClassTotals(chiHat, k)
		avg := totalOf(psi) / float64(k)
		// Lemma 9: ‖Ψχ̂⁻¹‖∞ = O(‖Ψ‖avg + ‖Ψ‖∞); with r = 1 the paper's
		// constants give ≤ 3·avg + 2·max (medium threshold).
		bound := 3*avg + 2*maxOf(psi) + 1e-9
		if graph.MaxOf(ct) > bound {
			t.Fatalf("trial %d (k=%d): max class Ψ %v > bound %v", trial, k, graph.MaxOf(ct), bound)
		}
	}
}

func TestRebalancePreservesOtherMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gr, g := gridGraph(t, 12, 12)
	c := testCtx(g, gr, 2)
	k := 8
	// First balance measure A, then rebalance by B preserving A.
	a := make([]float64, g.N())
	b := make([]float64, g.N())
	for i := range a {
		a[i] = rng.Float64() + 0.1
		b[i] = rng.Float64() + 0.1
	}
	chi := c.rebalance(make([]int32, g.N()), k, a, nil, nil)
	aBefore := graph.MaxOf(measure.Measure(a).ClassTotals(chi, k))
	chi2 := c.rebalance(chi, k, b, [][]float64{a}, nil)

	bTot := measure.Measure(b).ClassTotals(chi2, k)
	avgB := totalOf(b) / float64(k)
	if graph.MaxOf(bTot) > 3*avgB+4*maxOf(b)+1e-9 {
		t.Fatalf("Ψ=B not balanced: %v", graph.MaxOf(bTot))
	}
	aAfter := graph.MaxOf(measure.Measure(a).ClassTotals(chi2, k))
	// Claim 3: growth at most 4× plus O_r(‖Φ‖∞).
	if aAfter > 4*aBefore+8*maxOf(a)+1e-9 {
		t.Fatalf("preserved measure grew too much: %v -> %v", aBefore, aAfter)
	}
}

func TestRebalanceNoopCases(t *testing.T) {
	gr, g := gridGraph(t, 4, 4)
	c := testCtx(g, gr, 2)
	chi := make([]int32, g.N())
	// k = 1: nothing to do.
	out := c.rebalance(chi, 1, g.Weight, nil, nil)
	for _, x := range out {
		if x != 0 {
			t.Fatal("k=1 rebalance changed colors")
		}
	}
	// Zero measure: unchanged.
	zero := make([]float64, g.N())
	out = c.rebalance(chi, 4, zero, nil, nil)
	for _, x := range out {
		if x != 0 {
			t.Fatal("zero-measure rebalance changed colors")
		}
	}
}

// ---------- Lemma 6 / Proposition 7 ----------

func TestMultiBalancedAllMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gr, g := gridGraph(t, 16, 16)
	randomizeWeights(rng, g, 5)
	c := testCtx(g, gr, 2)
	k := 16
	ms := [][]float64{c.pi, g.Weight}
	chi := c.multiBalanced(k, ms)
	if err := graph.CheckColoring(chi, k); err != nil {
		t.Fatal(err)
	}
	for j, m := range ms {
		ct := measure.Measure(m).ClassTotals(chi, k)
		avg := totalOf(m) / float64(k)
		bound := 4*avg + 16*maxOf(m)
		if graph.MaxOf(ct) > bound {
			t.Fatalf("measure %d not balanced: max %v, avg %v", j, graph.MaxOf(ct), avg)
		}
	}
}

func TestMinMaxBalancedBoundsMaxBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gr, g := gridGraph(t, 16, 16)
	randomizeWeights(rng, g, 5)
	c := testCtx(g, gr, 2)
	k := 16

	// Average-only stage (Lemma 6).
	chiAvg := c.multiBalanced(k, [][]float64{c.pi, g.Weight})
	// Full Proposition 7.
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	if err := graph.CheckColoring(chi, k); err != nil {
		t.Fatal(err)
	}
	stAvg := graph.Stats(g, chiAvg, k)
	st := graph.Stats(g, chi, k)

	// Proposition 7 should control the max/avg boundary ratio.
	if st.AvgBoundary > 0 && st.MaxBoundary > 6*st.AvgBoundary+4*g.MaxCostDegree() {
		t.Fatalf("max boundary %v far above avg %v", st.MaxBoundary, st.AvgBoundary)
	}
	// And it should not be worse than the unbalanced stage by much.
	if stAvg.MaxBoundary > 0 && st.MaxBoundary > 3*stAvg.MaxBoundary+4*g.MaxCostDegree() {
		t.Fatalf("Prop 7 worsened max boundary: %v vs %v", st.MaxBoundary, stAvg.MaxBoundary)
	}
	// Weights stay balanced.
	cw := st.ClassWeight
	avg := g.TotalWeight() / float64(k)
	if graph.MaxOf(cw) > 4*avg+16*g.MaxWeight() {
		t.Fatalf("weights unbalanced after Prop 7: %v", graph.MaxOf(cw))
	}
}

// ---------- parts extraction ----------

func TestIterativePartition(t *testing.T) {
	gr, g := gridGraph(t, 10, 10)
	c := testCtx(g, gr, 2)
	U := graph.AllVertices(g)
	psiStar := 10.0
	parts := c.iterativePartition(U, g.Weight, psiStar)
	covered := 0
	for i, X := range parts {
		covered += len(X)
		wX := sumOver(g.Weight, X)
		if i < len(parts)-1 && (wX < psiStar-1e-9 || wX > 3*psiStar+1e-9) {
			t.Fatalf("part %d weight %v outside [Ψ*, 3Ψ*]", i, wX)
		}
		if i == len(parts)-1 && wX > 3*psiStar+1e-9 {
			t.Fatalf("last part weight %v > 3Ψ*", wX)
		}
	}
	if covered != g.N() {
		t.Fatalf("parts cover %d, want %d", covered, g.N())
	}
}

func TestExtractLowImpact(t *testing.T) {
	gr, g := gridGraph(t, 10, 10)
	c := testCtx(g, gr, 2)
	U := graph.AllVertices(g)
	X := c.extractLowImpact(U, g.Weight, 10, [][]float64{c.pi})
	if len(X) == 0 || len(X) == len(U) {
		t.Fatalf("low-impact part size %d", len(X))
	}
	// The chosen part should carry roughly its share of π, not much more.
	ratio := sumOver(c.pi, X) / sumOver(c.pi, U)
	weightRatio := sumOver(g.Weight, X) / sumOver(g.Weight, U)
	if ratio > 4*weightRatio+0.1 {
		t.Fatalf("low-impact part carries π ratio %v at weight ratio %v", ratio, weightRatio)
	}
}

func TestExtractHighImpact(t *testing.T) {
	gr, g := gridGraph(t, 10, 10)
	c := testCtx(g, gr, 2)
	U := graph.AllVertices(g)
	target := 12.0
	X := c.extractHighImpact(U, g.Weight, target, [][]float64{c.pi})
	wX := sumOver(g.Weight, X)
	if wX < target-1e-9 {
		t.Fatalf("high-impact part weight %v below target %v", wX, target)
	}
	// Must carry a guaranteed share of π (Corollary 18's max-part pick).
	if sumOver(c.pi, X) <= 0 {
		t.Fatal("high-impact part carries no π at all")
	}
	// Whole-set request.
	all := c.extractHighImpact(U, g.Weight, 1e9, [][]float64{c.pi})
	if len(all) != len(U) {
		t.Fatal("target above total should return everything")
	}
}

func TestExtractChunk(t *testing.T) {
	gr, g := gridGraph(t, 8, 8)
	c := testCtx(g, gr, 2)
	U := graph.AllVertices(g)
	maxw := maxOf(g.Weight)
	X := c.extractChunk(U, g.Weight, maxw)
	wX := sumOver(g.Weight, X)
	if wX > maxw+1e-9 {
		t.Fatalf("chunk weight %v > ‖w‖∞ = %v", wX, maxw)
	}
	if wX < maxw/2-1e-9 {
		t.Fatalf("chunk weight %v < ‖w‖∞/2", wX)
	}
	// Heavy-vertex case.
	g.Weight[10] = 50
	X = c.extractChunk(U, g.Weight, 50)
	if len(X) != 1 || X[0] != 10 {
		t.Fatalf("expected heavy singleton {10}, got %v", X)
	}
	// Empty input.
	if X := c.extractChunk(nil, g.Weight, 1); X != nil {
		t.Fatal("empty input should give nil")
	}
}

// ---------- bin packing ----------

func TestBinPack2Strictness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		gr, g := gridGraph(t, 10, 10)
		randomizeWeights(rng, g, float64(1+trial))
		c := testCtx(g, gr, 2)
		k := 2 + rng.Intn(9)
		// Start from a deliberately lopsided coloring.
		chi := make([]int32, g.N())
		for v := range chi {
			if rng.Intn(4) == 0 {
				chi[v] = int32(rng.Intn(k))
			}
		}
		out := c.binPack2(chi, k)
		if err := graph.CheckColoring(out, k); err != nil {
			t.Fatal(err)
		}
		if !graph.IsStrictlyBalanced(g, out, k) {
			st := graph.Stats(g, out, k)
			t.Fatalf("trial %d: not strict: dev %v bound %v", trial,
				st.MaxWeightDeviation, st.StrictBound)
		}
	}
}

func TestChunkedGreedyAlwaysStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		gr, g := gridGraph(t, 9, 9)
		// Adversarial: heavy-tailed weights.
		for v := range g.Weight {
			g.Weight[v] = math.Exp(rng.Float64() * 6)
		}
		c := testCtx(g, gr, 2)
		k := 2 + rng.Intn(9)
		chi := make([]int32, g.N()) // everything one class
		out := c.chunkedGreedy(chi, k)
		if err := graph.CheckColoring(out, k); err != nil {
			t.Fatal(err)
		}
		if !graph.IsStrictlyBalanced(g, out, k) {
			st := graph.Stats(g, out, k)
			t.Fatalf("trial %d: chunked greedy not strict: dev %v bound %v",
				trial, st.MaxWeightDeviation, st.StrictBound)
		}
	}
}

func TestBinPack1AlmostStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	gr, g := gridGraph(t, 10, 10)
	randomizeWeights(rng, g, 2)
	c := testCtx(g, gr, 2)
	k := 5
	classes := classLists(makeRandomColoring(rng, g.N(), k), k)
	w1 := make([]float64, k) // empty W₁
	avg := totalOf(g.Weight) / float64(k)
	maxw := maxOf(g.Weight)
	out := c.binPack1(classes, g.Weight, w1, avg, maxw)
	for i := range out {
		cw := sumOver(g.Weight, out[i])
		if math.Abs(cw-avg) > 2*maxw+1e-9 {
			t.Fatalf("class %d weight %v deviates from avg %v by > 2‖w‖∞", i, cw, avg)
		}
	}
}

func makeRandomColoring(rng *rand.Rand, n, k int) []int32 {
	chi := make([]int32, n)
	for i := range chi {
		chi[i] = int32(rng.Intn(k))
	}
	return chi
}

// ---------- shrink / Proposition 11 ----------

func TestShrinkProducesBalancedPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gr, g := gridGraph(t, 24, 24)
	randomizeWeights(rng, g, 0.2) // small ‖w‖∞ relative to Ψ*
	c := testCtx(g, gr, 2)
	k := 4
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	classes := classLists(chi, k)
	sr := c.shrink(classes, g.Weight)
	psiStar := g.TotalWeight() / float64(k)

	n0, n1 := 0, 0
	for i := 0; i < k; i++ {
		n0 += len(sr.classes0[i])
		n1 += len(sr.classes1[i])
		w0 := sumOver(g.Weight, sr.classes0[i])
		// Definition 13a: χ₀ classes hold ≈ ε·Ψ* weight each.
		if w0 < shrinkEps*psiStar-maxOf(g.Weight)-1e-9 {
			t.Fatalf("χ₀ class %d weight %v below ε·Ψ* = %v", i, w0, shrinkEps*psiStar)
		}
		if w0 > shrinkEps*psiStar+4*maxOf(g.Weight)*float64(len(sr.classes0))+1 {
			t.Fatalf("χ₀ class %d weight %v far above ε·Ψ*", i, w0)
		}
	}
	if n0+n1 != g.N() {
		t.Fatalf("shrink pieces cover %d, want %d", n0+n1, g.N())
	}
	if n0 == 0 {
		t.Fatal("shrink made no progress")
	}
}

func TestAlmostStrictFromWeaklyBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gr, g := gridGraph(t, 20, 20)
	randomizeWeights(rng, g, 1)
	c := testCtx(g, gr, 2)
	k := 6
	chi := c.minMaxBalanced(k, [][]float64{g.Weight})
	out := c.almostStrict(chi, k, false)
	if err := graph.CheckColoring(out, k); err != nil {
		t.Fatal(err)
	}
	if !graph.IsAlmostStrictlyBalanced(g, out, k) {
		st := graph.Stats(g, out, k)
		t.Fatalf("not almost strict: dev %v vs 2‖w‖∞ = %v",
			st.MaxWeightDeviation, 2*g.MaxWeight())
	}
}

// ---------- Decompose end-to-end ----------

func TestDecomposeStrictAndCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{2, 4, 8, 16} {
		gr, g := gridGraph(t, 20, 20)
		randomizeWeights(rng, g, 3)
		res, err := Decompose(context.Background(), g, Options{K: k, P: 2, Splitter: splitter.NewGrid(gr)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.StrictlyBalanced {
			t.Fatalf("k=%d: not strictly balanced", k)
		}
		bound := TheoremBound(g, k, 2)
		if res.Stats.MaxBoundary > 20*bound {
			t.Fatalf("k=%d: max boundary %v far above theorem shape %v",
				k, res.Stats.MaxBoundary, bound)
		}
	}
}

func TestDecomposeDefaultSplitter(t *testing.T) {
	_, g := gridGraph(t, 12, 12)
	res, err := Decompose(context.Background(), g, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("default splitter result not strict")
	}
}

func TestDecomposeK1(t *testing.T) {
	_, g := gridGraph(t, 4, 4)
	res, err := Decompose(context.Background(), g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced || res.Stats.MaxBoundary != 0 {
		t.Fatal("k=1 should be trivially strict with zero boundary")
	}
}

func TestDecomposeErrors(t *testing.T) {
	_, g := gridGraph(t, 3, 3)
	if _, err := Decompose(context.Background(), g, Options{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Decompose(context.Background(), g, Options{K: 2, P: 0.5}); err == nil {
		t.Fatal("expected error for P ≤ 1")
	}
	// The empty graph must not skip option validation.
	empty := graph.NewBuilder(0).MustBuild()
	for _, p := range []float64{0.5, math.NaN()} {
		if _, err := Decompose(context.Background(), empty, Options{K: 2, P: p}); err == nil {
			t.Fatalf("Decompose on the empty graph accepted P = %v", p)
		}
		if _, err := Refine(context.Background(), empty, Options{K: 2, P: p}, []int32{}, nil); err == nil {
			t.Fatalf("Refine on the empty graph accepted P = %v", p)
		}
	}
}

func TestDecomposeEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, err := Decompose(context.Background(), g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coloring) != 0 {
		t.Fatal("empty graph should give empty coloring")
	}
}

func TestDecomposeHeavyVertices(t *testing.T) {
	// Degenerate weights: a few vertices dominate; the backstop must hold.
	rng := rand.New(rand.NewSource(23))
	gr, g := gridGraph(t, 8, 8)
	for v := range g.Weight {
		if rng.Intn(16) == 0 {
			g.Weight[v] = 100
		}
	}
	res, err := Decompose(context.Background(), g, Options{K: 5, Splitter: splitter.NewGrid(gr)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("heavy-vertex instance not strictly balanced")
	}
}

func TestDecomposeAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	gr, g := gridGraph(t, 16, 16)
	randomizeWeights(rng, g, 2)
	for _, opt := range []Options{
		{K: 8, Splitter: splitter.NewGrid(gr), SkipBoundaryBalance: true},
		{K: 8, Splitter: splitter.NewGrid(gr), SkipShrink: true},
		{K: 8, Splitter: splitter.NewGrid(gr), SkipBoundaryBalance: true, SkipShrink: true},
	} {
		res, err := Decompose(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.StrictlyBalanced {
			t.Fatalf("ablation %+v lost strictness", opt)
		}
	}
}

func TestDecomposeKBiggerThanN(t *testing.T) {
	gr, g := gridGraph(t, 3, 3)
	res, err := Decompose(context.Background(), g, Options{K: 20, Splitter: splitter.NewGrid(gr)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		st := res.Stats
		t.Fatalf("k > n not strict: dev %v bound %v", st.MaxWeightDeviation, st.StrictBound)
	}
}

func TestStageWrappers(t *testing.T) {
	gr, g := gridGraph(t, 10, 10)
	opt := Options{K: 4, Splitter: splitter.NewGrid(gr)}
	c, err := newCtx(context.Background(), g, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	chi := c.multiBalanced(4, [][]float64{g.Weight})
	if err := graph.CheckColoring(chi, 4); err != nil {
		t.Fatal(err)
	}
	chi2 := c.minMaxBalanced(4, [][]float64{g.Weight})
	chi3 := c.almostStrict(chi2, 4, false)
	if !graph.IsAlmostStrictlyBalanced(g, chi3, 4) {
		t.Fatal("Proposition 11 stage failed")
	}
	chi4 := c.binPack2(chi3, 4)
	if !graph.IsStrictlyBalanced(g, chi4, 4) {
		t.Fatal("Proposition 12 stage failed")
	}
}

// ---------- Theorem 5 shape: boundary decays with k ----------

func TestMaxBoundaryDecaysWithK(t *testing.T) {
	gr, g := gridGraph(t, 24, 24)
	get := func(k int) float64 {
		res, err := Decompose(context.Background(), g, Options{K: k, Splitter: splitter.NewGrid(gr)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.StrictlyBalanced {
			t.Fatalf("k=%d not strict", k)
		}
		return res.Stats.MaxBoundary
	}
	b4 := get(4)
	b64 := get(64)
	// ‖c‖₂/k^{1/2} shrinks 4× from k=4 to k=64; allow slack but demand decay.
	if b64 > b4 {
		t.Fatalf("max boundary did not decay: k=4 → %v, k=64 → %v", b4, b64)
	}
}
