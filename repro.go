// Package repro is the public facade of the reproduction of
//
//	David Steurer, "Tight Bounds on the Min-Max Boundary Decomposition
//	Cost of Weighted Graphs", SPAA 2006 (arXiv:cs/0606001).
//
// It partitions a graph with vertex weights and edge costs into k strictly
// weight-balanced parts minimizing the maximum boundary cost — the min-max
// boundary decomposition problem. The guarantee (Theorem 4):
//
//   - every part's weight is within (1 − 1/k)·‖w‖∞ of the average ‖w‖₁/k
//     (Definition 1 — as balanced as greedy bin packing), and
//   - the maximum boundary cost is O_p(σ_p·(k^{−1/p}·‖c‖_p + Δ_c)), where
//     σ_p is the graph's p-splittability (Definition 3).
//
// The API is built around a long-lived Engine (policy: parallelism,
// multilevel path, verification, observability) minting Instance handles
// (per-graph session state: content hash, current coloring, migration
// history). Every run takes a context.Context and cancels
// mid-pipeline. Quick start:
//
//	eng := repro.NewEngine()
//	inst, err := eng.NewGridInstance(grid.MustBox(64, 64), 16)  // §6 oracle
//	res, err := inst.Partition(ctx)
//	// res.Coloring[v] ∈ [0,16), res.Stats.MaxBoundary, …
//	res, err = inst.Repartition(ctx, repro.Delta{Scale: drift})  // warm resume
//
// or, one-shot for a general mesh-like graph:
//
//	res, err := eng.Partition(ctx, g, 16)                       // BFS+FM oracle
//
// The full pipeline and every substrate live under internal/: see
// DESIGN.md for the system inventory (§8 for the Engine/Instance API) and
// EXPERIMENTS.md for the reproduction of the paper's bounds.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Options re-exports the pipeline configuration.
type Options = core.Options

// Result re-exports the pipeline output.
type Result = core.Result

// Verification re-exports the audit report of a Result.
type Verification = core.Verification

// Verify audits a Result against the graph and options it was produced
// under: completeness, Definition 1 strict balance, boundary consistency
// of the reported stats, and the advisory Theorem 4 bound with the given
// multiplier. It is the certification entry point for serving harnesses
// (internal/loadgen) that must not trust a response without re-deriving
// its guarantees from the coloring.
func Verify(g *graph.Graph, opt Options, res Result, factor float64) Verification {
	return core.Verify(g, opt, res, factor)
}

// BatchError aggregates the per-instance failures of a Batch run.
// Errs is indexed like the input slice: Errs[i] is nil exactly when
// instance i succeeded. errors.Is and errors.As traverse every non-nil
// entry via Unwrap — a batch cut short by cancellation satisfies
// errors.Is(err, context.Canceled).
type BatchError struct {
	Errs []error
}

// Error summarizes the failure count and the first failing instance.
func (e *BatchError) Error() string {
	n, first := 0, -1
	for i, err := range e.Errs {
		if err != nil {
			n++
			if first < 0 {
				first = i
			}
		}
	}
	if n == 0 {
		return "repro: batch error with no failures"
	}
	return fmt.Sprintf("repro: %d of %d batch instances failed; first: instance %d: %v",
		n, len(e.Errs), first, e.Errs[first])
}

// Unwrap returns the non-nil per-instance errors for errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// Migration quantifies how many vertices changed class between two
// colorings — the data-movement cost a serving system pays to adopt a new
// decomposition.
type Migration struct {
	// Vertices counts vertices whose class differs.
	Vertices int
	// Weight is the total weight of those vertices.
	Weight float64
	// Fraction is Weight over the graph's total weight (0 for empty graphs).
	Fraction float64
}

// MigrationOf compares two complete colorings of g. It panics if the
// colorings' lengths differ from g.N().
func MigrationOf(g *graph.Graph, prior, next []int32) Migration {
	if len(prior) != g.N() || len(next) != g.N() {
		panic(fmt.Sprintf("repro: MigrationOf length mismatch (%d, %d, N=%d)",
			len(prior), len(next), g.N()))
	}
	var m Migration
	for v := range prior {
		if prior[v] != next[v] {
			m.Vertices++
			m.Weight += g.Weight[v]
		}
	}
	if tw := g.TotalWeight(); tw > 0 {
		m.Fraction = m.Weight / tw
	}
	return m
}

// MigrationAcross compares a coloring of a base graph with one of its
// topology-patched successor g2: a surviving vertex migrates when its
// class changed across the patch, an inserted vertex always migrates (it
// has no prior placement), and a removed vertex never does (it has no
// destination). oldToNew is the patch's id mapping (−1 for removed);
// Weight and Fraction are measured on g2. It panics on length
// mismatches, like MigrationOf.
func MigrationAcross(g2 *graph.Graph, oldToNew []int32, prior, next []int32) Migration {
	if len(prior) != len(oldToNew) || len(next) != g2.N() {
		panic(fmt.Sprintf("repro: MigrationAcross length mismatch (prior %d, oldToNew %d, next %d, N=%d)",
			len(prior), len(oldToNew), len(next), g2.N()))
	}
	moved := make([]bool, g2.N())
	for i := range moved {
		moved[i] = true // inserted vertices count unless mapped below
	}
	for ov, nv := range oldToNew {
		if nv >= 0 {
			moved[nv] = prior[ov] != next[nv]
		}
	}
	var m Migration
	for v, mv := range moved {
		if mv {
			m.Vertices++
			m.Weight += g2.Weight[v]
		}
	}
	if tw := g2.TotalWeight(); tw > 0 {
		m.Fraction = m.Weight / tw
	}
	return m
}
