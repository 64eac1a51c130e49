package graph

import (
	"math"
	"testing"
)

// testMesh builds a small weighted mesh with distinct costs.
func testMesh(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	b := NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.SetWeight(id(r, c), 1+float64((r*31+c*17)%7))
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1), 1+float64((r+c)%5))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c), 1+float64((r*c)%3))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pairAssign merges vertices {2i, 2i+1}.
func pairAssign(n int) ([]int32, int) {
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(v / 2)
	}
	return assign, (n + 1) / 2
}

func TestContractQuotientInvariants(t *testing.T) {
	g := testMesh(t, 6, 7)
	assign, coarseN := pairAssign(g.N())
	con, err := ContractPar(g, assign, coarseN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := con.Coarse.Validate(); err != nil {
		t.Fatalf("coarse graph invalid: %v", err)
	}
	if got, want := con.Coarse.TotalWeight(), g.TotalWeight(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("total weight changed: %g != %g", got, want)
	}
	// Total coarse cost = fine cost minus the internal (contracted) edges.
	internal := 0.0
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(int32(e))
		if assign[u] == assign[v] {
			internal += g.Cost[e]
		}
	}
	if got, want := con.Coarse.TotalCost(), g.TotalCost()-internal; math.Abs(got-want) > 1e-9 {
		t.Fatalf("coarse total cost %g, want %g", got, want)
	}
	// No parallel coarse edges (Validate covers it, but assert the count
	// shrank as the duplicate collapse implies).
	if con.Coarse.M() >= g.M() {
		t.Fatalf("contraction did not reduce edges: %d vs %d", con.Coarse.M(), g.M())
	}
}

func TestContractProjectPreservesBalanceAndBoundary(t *testing.T) {
	g := testMesh(t, 8, 8)
	assign, coarseN := pairAssign(g.N())
	con, err := ContractPar(g, assign, coarseN, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	coarseChi := make([]int32, coarseN)
	for v := range coarseChi {
		coarseChi[v] = int32(v % k)
	}
	fineChi := con.Project(coarseChi)
	cs := Stats(con.Coarse, coarseChi, k)
	fs := Stats(g, fineChi, k)
	for i := 0; i < k; i++ {
		if math.Abs(cs.ClassWeight[i]-fs.ClassWeight[i]) > 1e-9 {
			t.Fatalf("class %d weight differs after projection: %g vs %g", i, cs.ClassWeight[i], fs.ClassWeight[i])
		}
		if math.Abs(cs.ClassBoundary[i]-fs.ClassBoundary[i]) > 1e-9 {
			t.Fatalf("class %d boundary differs after projection: %g vs %g", i, cs.ClassBoundary[i], fs.ClassBoundary[i])
		}
	}
}

func TestContractRejectsBadAssignments(t *testing.T) {
	g := testMesh(t, 3, 3)
	if _, err := ContractPar(g, make([]int32, 4), 2, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := make([]int32, g.N())
	bad[0] = 9
	if _, err := ContractPar(g, bad, 2, 1); err == nil {
		t.Fatal("out-of-range coarse id accepted")
	}
	skip := make([]int32, g.N()) // never maps to id 1
	if _, err := ContractPar(g, skip, 2, 1); err == nil {
		t.Fatal("non-surjective assignment accepted")
	}
}

// TestContractParMatchesSequential pins the parallel aggregation's
// bit-identity claim: above the fan-out cutoff, ContractPar at several
// worker bounds produces byte-identical coarse graphs (weights, sorted
// edge lists, costs) and identical maps to the sequential par=1 run.
func TestContractParMatchesSequential(t *testing.T) {
	g := testMesh(t, 160, 160) // 50880 edges ≥ contractParCutoff
	if g.M() < contractParCutoff {
		t.Fatalf("test mesh too small to exercise the parallel path: m=%d", g.M())
	}
	assign, coarseN := pairAssign(g.N())
	seq, err := ContractPar(g, assign, coarseN, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		con, err := ContractPar(g, assign, coarseN, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if a, b := ContentHash(con.Coarse), ContentHash(seq.Coarse); a != b {
			t.Fatalf("par=%d: coarse content hash %s != sequential %s", par, a, b)
		}
		// Bitwise equality beyond the hash: identical edge order and cost
		// bits (the FP-order part of the determinism contract).
		if con.Coarse.M() != seq.Coarse.M() {
			t.Fatalf("par=%d: edge count %d != %d", par, con.Coarse.M(), seq.Coarse.M())
		}
		for e := 0; e < seq.Coarse.M(); e++ {
			au, av := con.Coarse.Endpoints(int32(e))
			bu, bv := seq.Coarse.Endpoints(int32(e))
			if au != bu || av != bv || math.Float64bits(con.Coarse.Cost[e]) != math.Float64bits(seq.Coarse.Cost[e]) {
				t.Fatalf("par=%d: edge %d differs: (%d,%d,%x) vs (%d,%d,%x)",
					par, e, au, av, math.Float64bits(con.Coarse.Cost[e]), bu, bv, math.Float64bits(seq.Coarse.Cost[e]))
			}
		}
		for v := range seq.Coarse.Weight {
			if math.Float64bits(con.Coarse.Weight[v]) != math.Float64bits(seq.Coarse.Weight[v]) {
				t.Fatalf("par=%d: weight of coarse vertex %d differs bitwise", par, v)
			}
		}
		for v := range seq.Map {
			if con.Map[v] != seq.Map[v] {
				t.Fatalf("par=%d: map differs at %d", par, v)
			}
		}
	}
}
