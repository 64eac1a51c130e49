package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis"
)

// TestAllRegistry pins the analyzer registry: DESIGN.md §13 catalogues
// these five checks, each with a distinct suppression directive and
// documentation.
func TestAllRegistry(t *testing.T) {
	all := analysis.All()
	wantNames := []string{"determinism", "ctxcheckpoint", "stagepair", "atomicfield", "cachekey"}
	if len(all) != len(wantNames) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(wantNames))
	}
	directives := map[string]string{}
	for i, a := range all {
		if a.Name != wantNames[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s has no Run", a.Name)
		}
		if a.Directive == "" {
			t.Errorf("%s has no suppression directive", a.Name)
		} else if prev, dup := directives[a.Directive]; dup {
			t.Errorf("%s and %s share directive %q", prev, a.Name, a.Directive)
		} else {
			directives[a.Directive] = a.Name
		}
	}
}

// TestDriverUsesAll asserts cmd/reprolint registers exactly
// analysis.All(): the driver source must obtain its analyzer list from
// the All() call and must not construct analyzers ad hoc, so adding an
// analyzer to All() is the single step that gates the build.
func TestDriverUsesAll(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../../cmd/reprolint/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	usesAll := false
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "All" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "analysis" {
				usesAll = true
			}
		}
		return true
	})
	if !usesAll {
		t.Fatal("cmd/reprolint/main.go does not call analysis.All(); the driver must register exactly the registry")
	}
	// No ad-hoc analysis.Analyzer composite literals in the driver.
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if sel, ok := cl.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Analyzer" {
			t.Errorf("%s: cmd/reprolint constructs an ad-hoc Analyzer; register it in analysis.All() instead",
				fset.Position(cl.Pos()))
		}
		return true
	})
}
