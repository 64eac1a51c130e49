package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// path returns a path graph 0-1-2-...-(n-1) with unit costs and weights.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	return b.MustBuild()
}

// cycle returns a cycle on n vertices with unit costs and weights.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 1)
	}
	return b.MustBuild()
}

// randomGraph returns a connected random graph: a random spanning tree plus
// extra random edges, with random costs in (0, 1] and weights in (0, 1].
func randomGraph(rng *rand.Rand, n, extra int) *Graph {
	b := NewBuilder(n)
	seen := map[[2]int32]bool{}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		b.AddEdge(int32(u), int32(v), rng.Float64()+1e-9)
		seen[[2]int32{int32(u), int32(v)}] = true
	}
	for i := 0; i < extra; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		b.AddEdge(u, v, rng.Float64()+1e-9)
	}
	for v := 0; v < n; v++ {
		b.SetWeight(int32(v), rng.Float64()+1e-9)
	}
	return b.MustBuild()
}

func TestBuilderBasic(t *testing.T) {
	g := path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("got N=%d M=%d, want 5, 4", g.N(), g.M())
	}
	if g.Size() != 9 {
		t.Fatalf("Size = %d, want 9", g.Size())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(0), g.Degree(2))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestBuilderRejectsParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for parallel edge")
	}
}

func TestBuilderRejectsNegativeCost(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, -1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for negative cost")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
}

func TestOtherPanicsOnNonEndpoint(t *testing.T) {
	g := path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Other(0, 2)
}

func TestEndpointsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 100)
	for e := int32(0); e < int32(g.M()); e++ {
		u, v := g.Endpoints(e)
		if u >= v {
			t.Fatalf("edge %d endpoints not ordered: %d, %d", e, u, v)
		}
		if g.Other(e, u) != v || g.Other(e, v) != u {
			t.Fatalf("Other inconsistent on edge %d", e)
		}
	}
}

func TestAdjacencyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 80, 200)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degree sums to 2M.
	sum := 0
	for v := int32(0); v < int32(g.N()); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2M %d", sum, 2*g.M())
	}
}

func TestCostDegreeAndMax(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	g := b.MustBuild()
	if got := g.CostDegree(1); got != 5 {
		t.Fatalf("CostDegree(1) = %v, want 5", got)
	}
	if got := g.MaxCostDegree(); got != 5 {
		t.Fatalf("MaxCostDegree = %v, want 5", got)
	}
}

func TestNormsAndTotals(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 3)
	b.SetWeight(0, 2)
	b.SetWeight(1, 5)
	g := b.MustBuild()
	if g.TotalWeight() != 7 || g.MaxWeight() != 5 {
		t.Fatalf("weights wrong: %v %v", g.TotalWeight(), g.MaxWeight())
	}
	if g.TotalCost() != 3 || g.MaxCost() != 3 {
		t.Fatalf("costs wrong: %v %v", g.TotalCost(), g.MaxCost())
	}
	if got := g.CostNorm(2); math.Abs(got-3) > 1e-12 {
		t.Fatalf("CostNorm(2) = %v, want 3", got)
	}
}

func TestPNorm(t *testing.T) {
	xs := []float64{3, 4}
	if got := PNorm(xs, 2); math.Abs(got-5) > 1e-12 {
		t.Fatalf("PNorm 2 = %v, want 5", got)
	}
	if got := PNorm(xs, 1); math.Abs(got-7) > 1e-12 {
		t.Fatalf("PNorm 1 = %v, want 7", got)
	}
	if got := PNorm(xs, math.Inf(1)); got != 4 {
		t.Fatalf("PNorm inf = %v, want 4", got)
	}
	if got := PNorm(nil, 2); got != 0 {
		t.Fatalf("PNorm empty = %v, want 0", got)
	}
	if got := PNorm([]float64{0, 0}, 3); got != 0 {
		t.Fatalf("PNorm zeros = %v, want 0", got)
	}
}

// squareEdgeCosts are the values around which c*c and math.Pow(c, 2) may
// part: 0, the smallest |c| with a normal square (2^-511) and its
// predecessor, 1e-160 (subnormal square), a value whose Pow square rounds
// twice and so differs from c*c in the last bit, and 1e200 (square
// overflows).
var squareEdgeCosts = []float64{0, 0x1p-511, math.Nextafter(0x1p-511, 0), 1e-160, 0x1.d54f55eb5a64p-512, 1e200}

// TestPNormSquaresLikePow pins PNorm at p = 2 to the math.Pow form of the
// norm, bit for bit, on slices mixing ordinary costs with squareEdgeCosts.
func TestPNormSquaresLikePow(t *testing.T) {
	powNorm := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			m = math.Max(m, x)
		}
		if m == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += math.Pow(x/m, 2)
		}
		return m * math.Pow(s, 1.0/2)
	}
	slices := [][]float64{
		{3, 4},
		squareEdgeCosts,
		append([]float64{1}, squareEdgeCosts[:5]...),
		append([]float64{0.37, 2.5, 1}, squareEdgeCosts[1:5]...),
		squareEdgeCosts[1:5],
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		xs := make([]float64, 1+rng.Intn(40))
		for j := range xs {
			if rng.Intn(4) == 0 {
				xs[j] = squareEdgeCosts[rng.Intn(len(squareEdgeCosts))]
			} else {
				xs[j] = math.Exp(rng.NormFloat64())
			}
		}
		slices = append(slices, xs)
	}
	for _, xs := range slices {
		got, want := PNorm(xs, 2), powNorm(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PNorm(%v, 2) = %v (%x), math.Pow form %v (%x)",
				xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestPNormMonotoneInP(t *testing.T) {
	// ‖x‖_p is non-increasing in p.
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Abs(x))
			}
		}
		n1 := PNorm(xs, 1.5)
		n2 := PNorm(xs, 2)
		n3 := PNorm(xs, 3)
		tol := 1e-9 * (n1 + 1)
		return n1+tol >= n2 && n2+tol >= n3
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHolderConjugate(t *testing.T) {
	if q := HolderConjugate(2); math.Abs(q-2) > 1e-12 {
		t.Fatalf("conj(2) = %v", q)
	}
	if q := HolderConjugate(1.5); math.Abs(q-3) > 1e-12 {
		t.Fatalf("conj(1.5) = %v", q)
	}
	if q := HolderConjugate(1); !math.IsInf(q, 1) {
		t.Fatalf("conj(1) = %v", q)
	}
	if q := HolderConjugate(math.Inf(1)); q != 1 {
		t.Fatalf("conj(inf) = %v", q)
	}
}

func TestFluctuation(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 8)
	g := b.MustBuild()
	if got := g.Fluctuation(); got != 8 {
		t.Fatalf("Fluctuation = %v, want 8", got)
	}
	empty := NewBuilder(2).MustBuild()
	if got := empty.Fluctuation(); got != 1 {
		t.Fatalf("empty Fluctuation = %v, want 1", got)
	}
}

func TestLocalFluctuation(t *testing.T) {
	// Star with costs 1 and 9: center cost degree 10, min incident cost 1.
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 9)
	g := b.MustBuild()
	if got := g.LocalFluctuation(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("LocalFluctuation = %v, want 10", got)
	}
}

func TestClone(t *testing.T) {
	g := path(4)
	h := g.Clone()
	h.Cost[0] = 99
	h.Weight[0] = 99
	if g.Cost[0] == 99 || g.Weight[0] == 99 {
		t.Fatal("Clone shares storage")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []int32{0, 1}, []int32{1, 2}, []float64{1, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight[2] != 3 || g.M() != 2 {
		t.Fatal("FromEdges wrong content")
	}
	if _, err := FromEdges(3, []int32{0}, []int32{1, 2}, []float64{1}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSortedEdgeList(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 3, 5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 2)
	g := b.MustBuild()
	us, vs, cs := g.SortedEdgeList()
	if us[0] != 0 || vs[0] != 1 || cs[0] != 1 {
		t.Fatalf("first edge wrong: %d %d %v", us[0], vs[0], cs[0])
	}
	if us[2] != 2 || vs[2] != 3 {
		t.Fatalf("last edge wrong: %d %d", us[2], vs[2])
	}
}

func TestMinPositiveCost(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 4)
	g := b.MustBuild()
	if got := g.MinPositiveCost(); got != 4 {
		t.Fatalf("MinPositiveCost = %v, want 4", got)
	}
}
