package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestPipelineAssemblyMatchesEntryPoints pins the refactoring contract:
// Decompose and Refine (global or over a dirty set) are nothing but
// DecomposePipeline / RefinePipeline driven by Pipeline.Run, so a
// hand-assembled identical pipeline produces the byte-identical coloring
// and the same oracle-call count.
func TestPipelineAssemblyMatchesEntryPoints(t *testing.T) {
	g := workload.ClimateMesh(24, 24, 3, 7)
	opt := Options{K: 8, Parallelism: 1}

	want, err := Decompose(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPipeline(MultiBalanceStage(), AlmostStrictStage(), StrictPackStage(), PolishStage(nil)).
		Run(context.Background(), g, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Coloring, got.Coloring) {
		t.Fatal("hand-assembled pipeline coloring differs from Decompose")
	}
	if want.Diag.SplitterCalls != got.Diag.SplitterCalls {
		t.Fatalf("oracle calls differ: %d vs %d", want.Diag.SplitterCalls, got.Diag.SplitterCalls)
	}

	// Perturb the weights so the prior is no longer strict, then compare
	// Refine with its assembly.
	w2 := append([]float64(nil), g.Weight...)
	for v := range w2 {
		if v%3 == 0 {
			w2[v] *= 4
		}
	}
	g2 := g.WithWeights(w2)
	var dirty []int32
	for v := int32(0); int(v) < g2.N(); v += 17 {
		dirty = append(dirty, v)
	}
	for _, d := range [][]int32{nil, dirty} {
		wantR, err := Refine(context.Background(), g2, opt, want.Coloring, d)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := NewPipeline(UnlessStrict(AlmostStrictStage(), StrictPackStage()), PolishStage(d)).
			Run(context.Background(), g2, opt, want.Coloring)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wantR.Coloring, gotR.Coloring) {
			t.Fatalf("hand-assembled refine pipeline differs from Refine (dirty %v)", d != nil)
		}
		if wantR.Diag.SplitterCalls != gotR.Diag.SplitterCalls {
			t.Fatalf("refine oracle calls differ (dirty %v): %d vs %d", d != nil, wantR.Diag.SplitterCalls, gotR.Diag.SplitterCalls)
		}
	}
}

// TestRefineStrictPriorSkipsToPolish pins the zero-oracle-calls resume:
// with a still-strict prior, the rebalancing group must expand to nothing.
func TestRefineStrictPriorSkipsToPolish(t *testing.T) {
	g := workload.ClimateMesh(20, 20, 3, 9)
	res, err := Decompose(context.Background(), g, Options{K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Refine(context.Background(), g, Options{K: 6, Parallelism: 1}, res.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Diag.SplitterCalls != 0 {
		t.Fatalf("strict prior paid %d oracle calls, want 0", warm.Diag.SplitterCalls)
	}
}

// TestMultilevelRejectsMeasures pins the documented incompatibility.
func TestMultilevelRejectsMeasures(t *testing.T) {
	g := workload.ClimateMesh(16, 16, 3, 1)
	extra := make([]float64, g.N())
	for v := range extra {
		extra[v] = float64(v % 3)
	}
	_, err := Decompose(context.Background(), g, Options{
		K: 4, Multilevel: &Multilevel{}, Measures: [][]float64{extra},
	})
	if err == nil {
		t.Fatal("Multilevel+Measures accepted")
	}
}

// TestMultilevelStageRequiresConfig pins the assembly error path.
func TestMultilevelStageRequiresConfig(t *testing.T) {
	g := workload.ClimateMesh(8, 8, 2, 1)
	_, err := NewPipeline(MultilevelStage()).Run(context.Background(), g, Options{K: 2}, nil)
	if err == nil {
		t.Fatal("MultilevelStage ran without Options.Multilevel")
	}
}

// TestMultilevelDiagnostics checks the multilevel accounting: levels and
// coarsen time recorded, oracle calls aggregated across the hierarchy and
// far below the direct path's count on an oracle-bound instance.
func TestMultilevelDiagnostics(t *testing.T) {
	g := workload.ClimateMesh(48, 48, 4, 2)
	direct, err := Decompose(context.Background(), g, Options{K: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Decompose(context.Background(), g, Options{
		K: 8, Parallelism: 1, Multilevel: &Multilevel{MinVertices: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Diag.Levels == 0 {
		t.Fatal("no coarsening levels recorded")
	}
	if ml.Diag.Coarsen <= 0 {
		t.Fatal("no coarsening time recorded")
	}
	if ml.Diag.SplitterCalls == 0 {
		t.Fatal("multilevel run recorded no oracle calls at all")
	}
	if v := Verify(g, Options{K: 8}, ml, 20); !v.OK() {
		t.Fatalf("multilevel result failed verification: %v", v.Errors)
	}
	_ = direct
}

// TestMultilevelDeterministic: same options ⇒ byte-identical multilevel
// coloring, at every parallelism level (the core determinism contract
// extends through coarsening, which is single-threaded and pure).
func TestMultilevelDeterministic(t *testing.T) {
	g := workload.ClimateMesh(40, 40, 4, 11)
	opt := Options{K: 8, Multilevel: &Multilevel{MinVertices: 128}}
	var first []int32
	for _, par := range []int{1, 1, 0, 4} {
		o := opt
		o.Parallelism = par
		res, err := Decompose(context.Background(), g, o)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Coloring
			continue
		}
		if !slices.Equal(first, res.Coloring) {
			t.Fatalf("multilevel coloring differs at Parallelism=%d", par)
		}
	}
}
