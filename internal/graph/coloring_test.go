package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestNewColoring(t *testing.T) {
	c := NewColoring(3)
	for _, x := range c {
		if x != Uncolored {
			t.Fatal("not uncolored")
		}
	}
}

func TestCheckColoring(t *testing.T) {
	if err := CheckColoring([]int32{0, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := CheckColoring([]int32{0, Uncolored}, 2); err == nil {
		t.Fatal("expected error for uncolored")
	}
	if err := CheckColoring([]int32{0, 3}, 3); err == nil {
		t.Fatal("expected error for out-of-range")
	}
}

func TestStatsPath(t *testing.T) {
	g := path(4) // unit weights
	coloring := []int32{0, 0, 1, 1}
	st := Stats(g, coloring, 2)
	if st.MaxWeight != 2 || st.MinWeight != 2 {
		t.Fatalf("class weights wrong: %+v", st)
	}
	if st.MaxBoundary != 1 || st.AvgBoundary != 1 {
		t.Fatalf("boundaries wrong: %+v", st)
	}
	if !st.StrictlyBalanced {
		t.Fatal("perfectly balanced coloring not reported strictly balanced")
	}
	if st.MaxWeightDeviation != 0 {
		t.Fatalf("deviation = %v, want 0", st.MaxWeightDeviation)
	}
}

func TestStrictBalanceBoundary(t *testing.T) {
	// 3 unit-weight vertices, k=2: avg 1.5, classes {2,1} deviate by 0.5
	// ≤ (1−1/2)·1 = 0.5 — exactly at the bound.
	g := path(3)
	if !IsStrictlyBalanced(g, []int32{0, 0, 1}, 2) {
		t.Fatal("at-bound coloring should be strictly balanced")
	}
	// All in one class: deviation 1.5 > 0.5.
	if IsStrictlyBalanced(g, []int32{0, 0, 0}, 2) {
		t.Fatal("all-one-class should not be strictly balanced")
	}
}

func TestAlmostStrictBalance(t *testing.T) {
	g := path(4)
	// Classes {3,1}: avg 2, deviation 1 ≤ 2·‖w‖∞ = 2.
	if !IsAlmostStrictlyBalanced(g, []int32{0, 0, 0, 1}, 2) {
		t.Fatal("deviation 1 should be almost strictly balanced")
	}
	// k=4 on 4 vertices all one class: deviation 3 > 2.
	if IsAlmostStrictlyBalanced(g, []int32{0, 0, 0, 0}, 4) {
		t.Fatal("deviation 3 should not be almost strictly balanced")
	}
}

// TestBalanceChecksMatchStats pins the two strictness checks, which read
// only weights, to the verdicts of the full Stats: IsStrictlyBalanced must
// equal Stats(...).StrictlyBalanced, and IsAlmostStrictlyBalanced must
// equal the 2·‖w‖∞ window applied to Stats' deviation. The colorings are
// random ones on random graphs, and colorings whose deviation sits on
// either side of each bound by a fraction of the float tolerance.
func TestBalanceChecksMatchStats(t *testing.T) {
	check := func(name string, g *Graph, coloring []int32, k int) {
		t.Helper()
		st := Stats(g, coloring, k)
		if got := IsStrictlyBalanced(g, coloring, k); got != st.StrictlyBalanced {
			t.Fatalf("%s: IsStrictlyBalanced = %v, Stats says %v (deviation %v, bound %v)", name, got, st.StrictlyBalanced, st.MaxWeightDeviation, st.StrictBound)
		}
		tol := 1e-9 * (st.AvgWeight + g.MaxWeight() + 1)
		want := st.MaxWeightDeviation <= 2*g.MaxWeight()+tol
		if got := IsAlmostStrictlyBalanced(g, coloring, k); got != want {
			t.Fatalf("%s: IsAlmostStrictlyBalanced = %v, Stats says %v (deviation %v, window %v)", name, got, want, st.MaxWeightDeviation, 2*g.MaxWeight())
		}
	}
	rng := rand.New(rand.NewSource(17))
	verdicts := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		n, k := 2+rng.Intn(40), 1+rng.Intn(6)
		g := randomGraph(rng, n, n)
		for v := range g.Weight {
			g.Weight[v] = rng.Float64() * 4
		}
		coloring := make([]int32, n)
		for v := range coloring {
			coloring[v] = int32(rng.Intn(k))
		}
		check("random", g, coloring, k)
		verdicts[IsStrictlyBalanced(g, coloring, k)]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("random colorings gave one verdict only: %v", verdicts)
	}

	// At the edge: three vertices in classes {0, 0, 1} deviate from the
	// average by exactly the strict bound (1 − 1/2)·1 when all weigh 1, and
	// six in classes {0, 0, 0, 0, 0, 1} by exactly the almost-strict window
	// 2·1. Nudging one weight by ε moves the deviation across the tolerance
	// (about 3e-9 and 5e-9 here) in either direction.
	edge := map[[2]bool]int{}
	for _, eps := range []float64{0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, 3e-9, 4e-9, 6e-9, 1e-8, -1e-8, -2e-8} {
		for _, tc := range []struct {
			coloring []int32
			nudge    int
		}{
			{[]int32{0, 0, 1}, 0}, {[]int32{0, 0, 1}, 2},
			{[]int32{0, 0, 0, 0, 0, 1}, 0}, {[]int32{0, 0, 0, 0, 0, 1}, 5},
		} {
			g := path(len(tc.coloring))
			g.Weight[tc.nudge] += eps
			check("edge", g, tc.coloring, 2)
			if strictEdge := len(tc.coloring) == 3; strictEdge {
				edge[[2]bool{strictEdge, IsStrictlyBalanced(g, tc.coloring, 2)}]++
			} else {
				edge[[2]bool{strictEdge, IsAlmostStrictlyBalanced(g, tc.coloring, 2)}]++
			}
		}
	}
	// Each check must have given both verdicts at its own edge.
	for _, key := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		if edge[key] == 0 {
			t.Fatalf("edge colorings never gave %v (strict edge, verdict)", key)
		}
	}
}

func TestClassList(t *testing.T) {
	coloring := []int32{1, 0, 1, Uncolored}
	classes := ClassList(coloring, 2)
	if len(classes[0]) != 1 || classes[0][0] != 1 {
		t.Fatalf("class 0 = %v", classes[0])
	}
	if len(classes[1]) != 2 {
		t.Fatalf("class 1 = %v", classes[1])
	}
}

// Property: Definition 1's bound is what a greedy bin packer achieves —
// sorting by descending weight and assigning to the lightest class always
// satisfies strict balance (the paper notes the guarantee matches greedy
// bin packing).
func TestStrictBalanceMatchesGreedyGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(50)
		k := 2 + rng.Intn(6)
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetWeight(int32(v), rng.Float64()*10)
		}
		g := b.MustBuild()
		// Greedy: descending weight into lightest bin.
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if g.Weight[order[j]] > g.Weight[order[i]] {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		coloring := NewColoring(n)
		load := make([]float64, k)
		for _, v := range order {
			best := 0
			for i := 1; i < k; i++ {
				if load[i] < load[best] {
					best = i
				}
			}
			coloring[v] = int32(best)
			load[best] += g.Weight[v]
		}
		if !IsStrictlyBalanced(g, coloring, k) {
			st := Stats(g, coloring, k)
			t.Fatalf("greedy packing violates Definition 1: dev=%v bound=%v",
				st.MaxWeightDeviation, st.StrictBound)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 40)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d", h.N(), h.M(), g.N(), g.M())
	}
	if math.Abs(h.TotalWeight()-g.TotalWeight()) > 1e-9 {
		t.Fatal("weights not preserved")
	}
	if math.Abs(h.TotalCost()-g.TotalCost()) > 1e-9 {
		t.Fatal("costs not preserved")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"abc",
		"2 1\n1\n",             // missing weight + edge
		"2 1\n1\n1\nx y z\n",   // bad edge
		"2 1\n1\n1\n0 1\n",     // edge missing cost
		"1 1\n1\n0 0 1\n",      // self loop
		"-1 0\n",               // negative n
		"2 1\n1\nbad\n0 1 1\n", // bad weight
	}
	for _, src := range cases {
		if _, err := Read(bytes.NewReader([]byte(src))); err == nil {
			t.Fatalf("expected error for input %q", src)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	src := "# header\n\n2 1\n# weights\n1\n2\n# edge\n0 1 3.5\n"
	g, err := Read(bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight[1] != 2 || g.Cost[0] != 3.5 {
		t.Fatal("content wrong")
	}
}
