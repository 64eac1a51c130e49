// Package analysis is reprolint: a suite of static analyzers that
// mechanically enforce the repo's determinism, cancellation, and
// concurrency invariants — the contracts DESIGN.md states in prose and the
// seed-corpus tests catch only probabilistically, after the fact.
//
// The package is deliberately self-contained: it mirrors the Analyzer /
// Pass / Diagnostic shape of golang.org/x/tools/go/analysis (so the
// analyzers could be rehosted on the real framework without rewriting
// them), but is built on the standard library alone — go/parser, go/types,
// and `go list -export` for dependency export data — because this module
// carries no third-party dependencies. cmd/reprolint is the multichecker
// driver; `go test ./internal/analysis` exercises every analyzer against
// the fixture corpus under testdata/src.
//
// # Suppression grammar
//
// A diagnostic is suppressed by a directive comment on the flagged line or
// on the line directly above it:
//
//	//repro:<directive> <reason citing DESIGN.md §N>
//
// where <directive> is the flagging analyzer's directive token
// (nondeterministic-ok, checkpoint-ok, stagepair-ok, atomic-ok). Every
// suppression must cite the DESIGN.md section that audits the site; a
// suppression without a "DESIGN.md §" citation is itself a diagnostic, as is an unknown //repro: directive. Two further
// directives are declarations rather than suppressions and need no
// citation: //repro:atomic on a struct field declares that the field is
// governed by the atomic-discipline invariant even when no direct
// atomic.<Op>(&x.f) call names it, and //repro:deterministic-core in any
// file opts a whole package into the deterministic-core analyzer scope.
// The cachekey analyzer has its own field-level exemption form,
// //repro:cachekey-exempt <Field> <reason citing DESIGN.md §N>, which
// exempts the named field only and silences no line.
//
// See DESIGN.md §13 for the analyzer-by-analyzer catalogue.
package analysis
