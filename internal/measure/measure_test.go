package measure

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func testGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 4)
	b.AddEdge(2, 3, 5)
	b.SetWeight(0, 1)
	b.SetWeight(1, 2)
	b.SetWeight(2, 3)
	b.SetWeight(3, 4)
	return b.MustBuild()
}

func TestMeasureBasics(t *testing.T) {
	m := Measure{1, 2, 3}
	if m.Total() != 6 || m.Max() != 3 || m.Avg(3) != 2 {
		t.Fatal("basics wrong")
	}
	if m.Sum([]int32{0, 2}) != 4 {
		t.Fatal("Sum wrong")
	}
	if m.MaxOver([]int32{0, 1}) != 2 {
		t.Fatal("MaxOver wrong")
	}
	c := m.Clone()
	c[0] = 9
	if m[0] == 9 {
		t.Fatal("Clone aliases")
	}
}

func TestUniformAndWeights(t *testing.T) {
	if Uniform(3).Total() != 3 {
		t.Fatal("Uniform wrong")
	}
	g := testGraph()
	w := Weights(g)
	if w.Total() != 10 {
		t.Fatal("Weights wrong")
	}
	w[0] = 99
	if g.Weight[0] == 99 {
		t.Fatal("Weights aliases graph storage")
	}
}

func TestSplittingCost(t *testing.T) {
	g := testGraph()
	pi := SplittingCostPar(g, 2, 1, 1)
	// π(1) = (3² + 4²)/2 = 12.5.
	if math.Abs(pi[1]-12.5) > 1e-12 {
		t.Fatalf("π(1) = %v, want 12.5", pi[1])
	}
	// Σπ = Σ c² (each edge counted at both endpoints, halved).
	want := (9.0 + 16 + 25)
	if math.Abs(pi.Total()-want) > 1e-12 {
		t.Fatalf("‖π‖₁ = %v, want %v", pi.Total(), want)
	}
	// σ scaling: σ^p multiplies.
	pi2 := SplittingCostPar(g, 2, 2, 1)
	if math.Abs(pi2.Total()-4*want) > 1e-9 {
		t.Fatal("σ scaling wrong")
	}
	// Definition 10 identity: ‖π‖₁^{1/p} = σ_p·‖c‖_p.
	if math.Abs(math.Sqrt(pi.Total())-g.CostNorm(2)) > 1e-9 {
		t.Fatal("π/‖c‖_p identity broken")
	}
}

func TestCostDegree(t *testing.T) {
	g := testGraph()
	tau := CostDegree(g)
	if tau[1] != 7 || tau[0] != 3 {
		t.Fatalf("τ = %v", tau)
	}
}

func TestDegreeWithin(t *testing.T) {
	g := testGraph()
	s := graph.NewSub(g, []int32{0, 1, 2})
	d := DegreeWithin(s)
	if d[1] != 2 || d[0] != 1 || d[3] != 0 {
		t.Fatalf("deg_W = %v", d)
	}
}

func TestClassTotals(t *testing.T) {
	m := Measure{1, 2, 3, 4}
	ct := m.ClassTotals([]int32{0, 1, 0, graph.Uncolored}, 2)
	if ct[0] != 4 || ct[1] != 2 {
		t.Fatalf("class totals %v", ct)
	}
}

func TestSplittingCostParMatchesSequential(t *testing.T) {
	g := workload.RandomGeometric(40000, 0.012, 10, 11) // ≥ splittingParCutoff vertices
	seq := SplittingCostPar(g, 2.4, 1.3, 1)
	for _, par := range []int{2, 4, 8} {
		got := SplittingCostPar(g, 2.4, 1.3, par)
		for v := range seq {
			if math.Float64bits(got[v]) != math.Float64bits(seq[v]) {
				t.Fatalf("par=%d: π(%d) differs bitwise: %x vs %x",
					par, v, math.Float64bits(got[v]), math.Float64bits(seq[v]))
			}
		}
	}
}
