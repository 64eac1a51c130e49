package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func fixture(name string) string { return filepath.Join("testdata", "src", name) }

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, fixture("determinism"), analysis.Determinism)
}

func TestCtxCheckpoint(t *testing.T) {
	analysistest.Run(t, fixture("ctxcheckpoint"), analysis.CtxCheckpoint)
}

func TestStagePair(t *testing.T) {
	analysistest.Run(t, fixture("stagepair"), analysis.StagePair)
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, fixture("atomicfield"), analysis.AtomicField)
}

func TestCacheKey(t *testing.T) {
	analysistest.Run(t, fixture("cachekey"), analysis.CacheKey)
}

// TestDirectiveValidation pins the suppression-grammar checks that ride
// along under the analyzer name "reprolint" (unknown directives, missing
// DESIGN.md citations). It runs the full suite so every registered
// directive counts as known.
func TestDirectiveValidation(t *testing.T) {
	analysistest.Run(t, fixture("directives"), analysis.All()...)
}

// TestModuleClean is the same gate CI's Reprolint step enforces: the
// full suite over the real module reports nothing. Running it here keeps
// `go test ./internal/analysis` self-contained evidence that the tree
// satisfies its own invariants.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, fset, err := analysis.LoadModule("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(fset, pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("module not reprolint-clean: %s", d)
	}
}
