package analysis

import (
	"go/ast"
	"go/types"
)

// CtxCheckpoint enforces the cancellation contract of DESIGN.md §8: every
// long loop in the deterministic core polls a cancellation checkpoint, so
// a cancelled run unwinds within the documented checkpoint granularity
// instead of running a stage to completion. A loop counts as long when
// its body calls long-running work — any function taking a
// context.Context, or one of the documented long-work helpers (the
// splitting oracle and the graph traversal/contraction machinery). Such a
// loop must also contain a checkpoint: context.Context's Err, one of the
// core ctx methods interrupted, split or parRange (which checkpoint
// internally), or a receive from the run's done channel (context.Context's
// Done, or core ctx's done field). A callee or a channel is a checkpoint by
// its type, never by its name alone. Audited exceptions carry
// //repro:checkpoint-ok with a DESIGN.md citation.
var CtxCheckpoint = &Analyzer{
	Name:      "ctxcheckpoint",
	Doc:       "requires a cancellation checkpoint in every deterministic-core loop that calls long-running work",
	Directive: "checkpoint-ok",
	Run:       runCtxCheckpoint,
}

// longWorkNames are the documented long-work helpers that do not take a
// context themselves: the splitting oracle adapter and the pooled graph
// traversals a single call of which is one checkpoint-granularity unit
// (DESIGN.md §8, §9).
var longWorkNames = map[string]bool{
	"Split":         true,
	"BFSOrder":      true,
	"MultiBFSOrder": true,
	"Components":    true,
	"InducedCopy":   true,
	// The parallel-multilevel primitives (DESIGN.md §14): O(M) aggregation
	// or ordering sweeps that take no context, so one call is one
	// checkpoint-granularity unit at the call site.
	"ContractPar":      true,
	"SplittingCostPar": true,
	"warmOrder":        true,
}

// ctxCheckpoints are the methods of the analyzed package's own ctx type
// that poll the run's cancellation (core's ctx, DESIGN.md §8).
var ctxCheckpoints = map[string]bool{
	"interrupted": true,
	"split":       true,
	"parRange":    true,
}

func runCtxCheckpoint(pass *Pass) error {
	if !pass.InDeterministicCore() {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			work := ""
			checkpointed := false
			ast.Inspect(body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					name := calleeName(m)
					if isCheckpoint(pass, m) {
						checkpointed = true
					}
					if work == "" && isLongWork(pass.Info, m, name) {
						work = name
					}
				case *ast.UnaryExpr:
					// A receive from the run's done channel is the raw
					// form of the interrupted() checkpoint.
					if m.Op.String() == "<-" && isDoneChannel(pass, m.X) {
						checkpointed = true
					}
				}
				return true
			})
			if work != "" && !checkpointed {
				pass.Reportf(n.Pos(), "loop calls long-running work (%s) without a cancellation checkpoint (interrupted/ctx.Err/parRange); poll one per iteration or suppress with //repro:checkpoint-ok", work)
			}
			return true
		})
	}
	return nil
}

// isCheckpoint reports whether call polls the run's cancellation: the Err
// method of context.Context, or a ctxCheckpoints method whose receiver is
// the ctx type declared in the analyzed package. A bufio.Scanner's Err or
// a free function named split is no checkpoint.
func isCheckpoint(pass *Pass, call *ast.CallExpr) bool {
	fn := funcFor(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Name() == "Err" {
		return fn.Pkg().Path() == "context"
	}
	if !ctxCheckpoints[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isRunCtx(pass, recv.Type())
}

// isRunCtx reports whether t, or the type t points to, is the ctx type
// declared in the analyzed package (core's run context).
func isRunCtx(pass *Pass, t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "ctx" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pass.Pkg.Path()
}

// isLongWork reports whether call is long-running work: its callee has a
// context.Context parameter, or its name is a documented long-work helper.
func isLongWork(info *types.Info, call *ast.CallExpr, name string) bool {
	if longWorkNames[name] {
		return true
	}
	fn := funcFor(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named := namedOf(sig.Params().At(i).Type()); named != nil {
			if named.Obj().Name() == "Context" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}

// isDoneChannel reports whether e is the run's done channel: a call of
// context.Context's Done method, or the done field of the ctx type
// declared in the analyzed package (core's cached run.Done()). A local or
// parameter named done may carry anything, a worker's result for one, so
// it is no checkpoint.
func isDoneChannel(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := funcFor(pass.Info, e)
		return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
	case *ast.SelectorExpr:
		sel := pass.Info.Selections[e]
		return sel != nil && sel.Kind() == types.FieldVal && sel.Obj().Name() == "done" &&
			isRunCtx(pass, sel.Recv())
	}
	return false
}
