package measure

import (
	"fmt"
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
	for _, p := range []float64{2, 2.4} {
		seq := SplittingCostPar(g, p, 1.3, 1)
		for _, par := range []int{2, 4, 8} {
			got := SplittingCostPar(g, p, 1.3, par)
			for v := range seq {
				if math.Float64bits(got[v]) != math.Float64bits(seq[v]) {
					t.Fatalf("p=%v par=%d: π(%d) differs bitwise: %x vs %x",
						p, par, v, math.Float64bits(got[v]), math.Float64bits(seq[v]))
				}
			}
		}
	}
}

// powSplittingCost is π of Definition 10 at p = 2 and σ = 1 with one
// math.Pow per incidence.
func powSplittingCost(g *graph.Graph) Measure {
	m := make(Measure, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		s := 0.0
		for _, e := range g.IncidentEdges(v) {
			s += math.Pow(g.Cost[e], 2)
		}
		m[v] = s / 2
	}
	return m
}

// TestSplittingCostSquaresLikePow pins π at p = 2 to the math.Pow form,
// bit for bit, at par 1 and 2: on seeded climate meshes, and on a small
// graph whose costs reach the subnormal squares where c*c and
// math.Pow(c, 2) may part.
func TestSplittingCostSquaresLikePow(t *testing.T) {
	check := func(name string, g *graph.Graph) {
		t.Helper()
		want := powSplittingCost(g)
		for _, par := range []int{1, 2} {
			got := SplittingCostPar(g, 2, 1, par)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s par=%d: π(%d) = %v (%x), math.Pow form %v (%x)", name, par, v,
						got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
				}
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		check(fmt.Sprintf("96² mesh seed %d", seed), workload.ClimateMesh(96, 96, 3, seed))
	}

	// Each edge cost c sits on a vertex whose two edges both cost c, so
	// π there is (c² + c²)/2 = c² exactly and a last-bit difference in the
	// square shows; the hub sums every cost once more beside ordinary ones.
	costs := []float64{0, 0x1p-511, math.Nextafter(0x1p-511, 0), 1e-160, 0x1.d54f55eb5a64p-512, 1e200, 1.5, 0.25}
	b := graph.NewBuilder(1 + 2*len(costs))
	for i, c := range costs {
		v, u := int32(1+2*i), int32(2+2*i)
		b.AddEdge(0, v, c)
		b.AddEdge(v, u, c)
	}
	check("edge costs", b.MustBuild())
}

// BenchmarkSplittingCostPar times the π sweep at p = 2 over a 224² climate
// mesh, the size of the direct workload's instances. 224² vertices lie
// above splittingParCutoff, so par=2 fans the sweep out.
func BenchmarkSplittingCostPar(b *testing.B) {
	g := workload.ClimateMesh(224, 224, 3, 1)
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SplittingCostPar(g, 2, 1, par)
			}
		})
	}
}
