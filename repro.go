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
// The stateless free functions (Partition, PartitionWithOptions,
// PartitionGrid, PartitionBatch, Repartition) survive as deprecated
// wrappers over a package-default Engine with context.Background(); new
// code should construct an Engine. The full pipeline and every substrate
// live under internal/: see DESIGN.md for the system inventory (§8 for
// the Engine/Instance API) and EXPERIMENTS.md for the reproduction of the
// paper's bounds.
package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
)

// Options re-exports the pipeline configuration.
type Options = core.Options

// Result re-exports the pipeline output.
type Result = core.Result

// Verification re-exports the audit report of a Result.
type Verification = core.Verification

// defaultEngine backs the deprecated free functions: a zero-policy Engine,
// so every wrapper behaves exactly as the pre-Engine API did.
var defaultEngine = NewEngine()

// Verify audits a Result against the graph and options it was produced
// under: completeness, Definition 1 strict balance, boundary consistency
// of the reported stats, and the advisory Theorem 4 bound with the given
// multiplier. It is the certification entry point for serving harnesses
// (internal/loadgen) that must not trust a response without re-deriving
// its guarantees from the coloring.
func Verify(g *graph.Graph, opt Options, res Result, factor float64) Verification {
	return core.Verify(g, opt, res, factor)
}

// Partition computes a strictly balanced k-coloring of g with small
// maximum boundary cost, using the default FM-refined BFS splitting oracle
// (suitable for bounded-degree mesh-like graphs).
//
// Deprecated: use Engine.Partition, which takes a context.Context and
// carries deployment policy. This wrapper delegates to a package-default
// Engine with context.Background(), so it can never be cancelled.
func Partition(g *graph.Graph, k int) (Result, error) {
	return defaultEngine.Partition(context.Background(), g, k)
}

// PartitionWithOptions runs the pipeline with explicit options.
//
// Deprecated: use Engine.PartitionWithOptions (cancellable, policy-aware).
func PartitionWithOptions(g *graph.Graph, opt Options) (Result, error) {
	return defaultEngine.PartitionWithOptions(context.Background(), g, opt)
}

// PartitionGrid partitions a d-dimensional grid graph using the paper's
// exact GridSplit splitting oracle (Section 6, Theorem 19) with the
// canonical exponent p = d/(d−1).
//
// Deprecated: use Engine.PartitionGrid, or Engine.NewGridInstance for
// repeated queries on one grid.
func PartitionGrid(gr *grid.Grid, k int) (Result, error) {
	return defaultEngine.PartitionGrid(context.Background(), gr, k)
}

// PartitionBatch decomposes a slice of independent instances across a
// worker pool; see Engine.Batch for the semantics (results indexed like
// gs, per-instance failures aggregated in *BatchError).
//
// Deprecated: use Engine.Batch, which additionally honors cancellation
// (stops launching instances once ctx is done and reports the cancelled
// entries as ctx.Err() inside the *BatchError).
func PartitionBatch(gs []*graph.Graph, opt Options) ([]Result, error) {
	return defaultEngine.Batch(context.Background(), gs, opt)
}

// Repartition resumes the pipeline from a prior coloring of a (possibly
// reweighted) graph — the incremental serving path. When vertex weights
// drift between queries (the paper's climate motivation: per-region cost
// changes "tremendously depending on day-time"), re-running only the
// rebalance → bin-pack → polish stages from the previous coloring is much
// cheaper than a fresh Decompose, skips the splitting-oracle recursion
// entirely when the prior coloring is still strictly balanced, and keeps
// vertices in their prior class wherever the balance window allows — so
// the migration volume (see MigrationOf) tracks the size of the drift.
// The result carries the same strict-balance guarantee as Partition.
//
// Deprecated: use Instance.Repartition, which reuses the session's
// content-hash topology digest across the drift chain, or
// Engine.Repartition for a one-shot cancellable resume.
func Repartition(g *graph.Graph, opt Options, prior []int32) (Result, error) {
	return defaultEngine.Repartition(context.Background(), g, opt, prior)
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
