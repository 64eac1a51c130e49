package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could be rehosted
// on the real framework; Run is invoked once per package in dependency
// order, and Finish (when set) once after every package, for analyses
// whose facts span the module (atomic-discipline is the canonical case).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and the -list output.
	Name string
	// Doc is the one-paragraph description printed by cmd/reprolint -list.
	Doc string
	// Directive is the suppression token of this analyzer's diagnostics:
	// a comment `//repro:<Directive> <reason citing DESIGN.md §N>` on the
	// flagged line (or the line above) silences them — except cachekey's,
	// which exempts one field and never a line (see fieldDirectives).
	Directive string
	// Run analyzes one package.
	Run func(*Pass) error
	// Finish, when non-nil, runs after every package's Run and may report
	// module-wide diagnostics from the accumulated State.
	Finish func(state map[string]any, report ReportFunc)
}

// ReportFunc reports a module-wide diagnostic at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// A Pass carries one analyzer's view of one package: the parsed files,
// the type-checked package, and the reporting hooks.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (comments included;
	// _test.go files are never loaded — the invariants govern production
	// code).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	state  map[string]any
	report func(token.Pos, string)
}

// Reportf reports a diagnostic of this pass's analyzer at pos. The runner
// applies the suppression table before the diagnostic surfaces.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// State returns the analyzer's run-wide blackboard, shared across every
// package's Pass and handed to Finish. Keys are analyzer-private.
func (p *Pass) State() map[string]any { return p.state }

// Diagnostic is one reported finding, post-suppression.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// deterministicCorePaths are the packages under the bit-identical-output
// contract of DESIGN.md §3/§8: same graph + same options must yield the
// same coloring at every parallelism level. The determinism and
// ctxcheckpoint analyzers apply only here (or to packages carrying the
// //repro:deterministic-core marker, which is how fixtures and future
// packages opt in).
var deterministicCorePaths = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/coarsen":  true,
	"repro/internal/graph":    true,
	"repro/internal/splitter": true,
	// measure joined the core set when SplittingCostPar gained a parallel
	// sweep: π feeds the coloring, so its bit-identity is load-bearing
	// (DESIGN.md §14).
	"repro/internal/measure": true,
}

// InDeterministicCore reports whether this pass's package is inside the
// deterministic core — by import path, or by the //repro:deterministic-core
// marker in any of its files.
func (p *Pass) InDeterministicCore() bool {
	if deterministicCorePaths[p.Pkg.Path()] {
		return true
	}
	return p.HasMarker("deterministic-core")
}

// HasMarker reports whether any file of the package carries the
// declaration directive //repro:<name>.
func (p *Pass) HasMarker(name string) bool {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, _, ok := parseDirective(c.Text); ok && d == name {
					return true
				}
			}
		}
	}
	return false
}

// funcFor resolves a call expression's callee to its *types.Func (nil for
// calls through function-typed variables, conversions, and builtins).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeName returns the bare name of a call's callee identifier — the
// x in f(x) or recv.x(y) — or "" when the callee is not an identifier.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// exprString renders an expression as source text (for matching the stage
// argument of a StageEnter against its StageLeave).
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// fieldKey is the module-wide identity of a struct field: the declaring
// package path, the named struct type, and the field name. It is stable
// across source-checked and export-data views of the same type, which
// object identity is not.
func fieldKey(named *types.Named, field string) string {
	pkg := ""
	if p := named.Obj().Pkg(); p != nil {
		pkg = p.Path()
	}
	return pkg + "." + named.Obj().Name() + "." + field
}

// typeString renders t relative to pkg for diagnostics.
func typeString(pkg *types.Package, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pkg))
}

// firstLine returns the first line of s (for compact diagnostics).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
