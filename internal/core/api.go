package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/splitter"
)

// Options configures Decompose.
type Options struct {
	// K is the number of parts (colors); must be ≥ 1.
	K int

	// P is the Hölder exponent of the splittability assumption
	// (Definition 3). Defaults to 2; use d/(d−1) on d-dimensional grids.
	P float64

	// Splitter is the splitting-set oracle. Defaults to an FM-refined BFS
	// prefix splitter on the input graph. Custom implementations must be
	// safe for concurrent use (see splitter.Splitter) whenever
	// Parallelism ≠ 1.
	Splitter splitter.Splitter

	// Observer, when non-nil, receives progress callbacks (stage
	// enter/leave, oracle calls, polish rounds) from the run. Callbacks
	// must be cheap and concurrency-safe; see Observer. Like Splitter and
	// Measures it has no wire representation and never influences the
	// computed coloring, so it is excluded from result-cache identity.
	Observer Observer

	// Parallelism bounds the worker pool used by the pipeline's
	// divide-and-conquer stages (and by PartitionBatch at the facade).
	// 0 defaults to runtime.GOMAXPROCS(0); 1 runs fully sequentially,
	// reproducing the single-threaded behavior bit-for-bit; values < 0 are
	// treated as 1. The coloring is deterministic for a given graph and
	// options regardless of this setting — parallelism only changes where
	// the work runs, never which work runs.
	Parallelism int

	// Measures are additional vertex measures to balance alongside the
	// vertex weights (the multi-balanced extension noted in Section 7).
	Measures [][]float64

	// Multilevel, when non-nil, selects the multilevel decomposition path:
	// coarsen the graph by heavy-edge matching contraction, solve the
	// coarsest level with the direct pipeline, then project the coloring
	// down the hierarchy, refining at each level. Same strict-balance
	// guarantee, typically a small constant-factor boundary premium, and a
	// large wall-clock win on instances whose oracle calls dominate (the
	// splitting recursion runs on the coarse proxy instead of the full
	// graph). nil selects the direct path. Multilevel is incompatible with
	// Measures (the coarse levels balance weight and π only) and is
	// ignored by Refine, which already starts from a projected-quality
	// prior. See Multilevel for the knobs and their defaults.
	Multilevel *Multilevel

	// SplitterFactory mints splitting oracles for derived graphs — the
	// coarse levels of the multilevel hierarchy, whose graphs exist only
	// inside the run (Splitter is bound to the input graph and cannot
	// serve them). nil defaults to the FM-refined BFS prefix splitter.
	// The factory must be safe for concurrent use when Parallelism ≠ 1;
	// like Splitter and Observer it has no wire representation, and —
	// because every in-tree factory is deterministic for a given graph —
	// it is excluded from result-cache identity.
	SplitterFactory func(g *graph.Graph) splitter.Splitter

	// SkipBoundaryBalance disables the Proposition 7 boundary-balancing
	// stage (ablation E10a): the coloring is still multi-balanced in
	// weights and π, but only the average boundary cost is controlled.
	SkipBoundaryBalance bool

	// SkipShrink replaces the Proposition 11 stage with nothing (ablation
	// E10b); strictness then rests entirely on BinPack2.
	SkipShrink bool

	// PaperShrink selects the faithful Section 5 shrink-and-conquer
	// recursion for the Proposition 11 stage instead of the default direct
	// surplus-to-deficit rebalancing (both meet the proposition's bound;
	// the recursion's worst-case constants are much larger — E10).
	PaperShrink bool

	// SkipPolish disables the final balance-preserving boundary polish
	// pass (an engineering extension over the paper; every move is
	// feasibility-checked against Definition 1, so the guarantee is
	// unchanged — it only shrinks the constant).
	SkipPolish bool
}

// Result is a strictly balanced k-coloring with its statistics.
type Result struct {
	// Coloring maps each vertex to its color in [0, K).
	Coloring []int32
	// Stats summarizes weights and boundary costs per Definition 1.
	Stats graph.ColoringStats
	// UsedFallback reports that the chunked-greedy backstop had to repair
	// strictness (degenerate inputs only).
	UsedFallback bool

	// Diag reports oracle-call counts and per-stage durations.
	Diag Diagnostics
}

// Decompose computes a strictly balanced k-coloring of g with small
// maximum boundary cost — the algorithmic content of Theorem 4:
//
//	∂ᵏ∞(G, c) = O_p(σ_p · (k^{−1/p}·‖c‖_p + Δ_c)).
//
// The pipeline is Proposition 7 (multi-balanced, min-max boundary) →
// Proposition 11 (almost strictly balanced) → Proposition 12 (strictly
// balanced).
//
// ctx cancels the run: every stage polls it at its checkpoints (oracle
// calls, pool work items, rebalance moves, polish rounds, coarsening
// sweeps), the worker pool drains itself, and Decompose returns ctx.Err()
// instead of a partial Result. Cancellation is cooperative — the longest
// stretch between checkpoints is one splitting-oracle call on the current
// subproblem.
//
// Decompose is an assembly over the stage pipeline: DecomposePipeline
// selects the direct or multilevel stage sequence from opt and Pipeline.Run
// drives it. Callers composing their own sequences use those pieces
// directly.
func Decompose(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	if opt.Multilevel != nil && len(opt.Measures) > 0 {
		// The coarse levels balance weight and π only; silently dropping a
		// multi-balance request would return a coloring without the
		// property the caller asked for.
		return Result{}, fmt.Errorf("core: Multilevel does not support Measures (coarse levels balance weight only); use the direct path")
	}
	return DecomposePipeline(opt).Run(ctx, g, opt, nil)
}

// Refine resumes the pipeline on an existing complete coloring of g — the
// incremental entry behind the session and serving layers' repartition
// path. The prior coloring (typically computed for a nearby weight field,
// e.g. before a day/night drift, or remapped onto a topology-mutated
// graph with removed vertices dropped and inserted ones adopted into a
// class) replaces the Proposition 7 divide-and-conquer as the starting
// point:
//
//   - if the prior coloring is still strictly balanced under g's current
//     weights, only the polish pass runs — no oracle calls at all;
//   - otherwise Proposition 11's direct rebalancing moves surplus-sized
//     splitting-set pieces from overweight to underweight classes, and
//     Proposition 12 restores strictness, exactly as in Decompose.
//
// dirty, when non-nil, restricts the polish pass to the closed
// neighborhood of those vertex ids of g — the region where a topology
// mutation can have created new boundary cost; nil polishes globally.
// Balance is certified globally either way: the strictness-guarded
// rebalancing stages and the driver's backstop see the whole graph, so a
// dirty-region refine carries the identical Definition 1 guarantee at a
// polish cost that tracks |dirty| instead of M.
//
// Every stage moves only as much weight as the imbalance demands, so
// vertices keep their prior class wherever the Definition 1 window allows:
// the migration volume between prior and the result tracks the size of the
// change, not the size of the graph. Diagnostics count only the resumed
// stages' oracle calls, making the saving over a fresh Decompose
// observable via SplitterCalls.
// ctx cancels the resumed run exactly as in Decompose: Refine returns
// ctx.Err() and the caller's prior coloring is never adopted or mutated
// (Refine works on a private copy from the start).
//
// Refine is an assembly over the stage pipeline: RefinePipeline guards the
// rebalancing stages behind the strictness check and Pipeline.Run drives
// the sequence. Options.Multilevel is ignored here — the prior coloring
// already plays the role the multilevel path's projection would.
func Refine(ctx context.Context, g *graph.Graph, opt Options, prior, dirty []int32) (Result, error) {
	if opt.K < 1 {
		return Result{}, fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	if len(opt.Measures) > 0 {
		// The resumed stages rebalance vertex weight only; silently
		// dropping a multi-balance request would return a coloring without
		// the property the caller asked for.
		return Result{}, fmt.Errorf("core: Refine does not support Measures (the resumed stages balance weight only); run Decompose")
	}
	if len(prior) != g.N() {
		return Result{}, fmt.Errorf("core: coloring length %d != N %d", len(prior), g.N())
	}
	if err := graph.CheckColoring(prior, opt.K); err != nil {
		return Result{}, err
	}
	for _, v := range dirty {
		if v < 0 || int(v) >= g.N() {
			return Result{}, fmt.Errorf("core: dirty vertex %d out of range [0, %d)", v, g.N())
		}
	}
	return RefinePipeline(dirty).Run(ctx, g, opt, prior)
}

// newCtx validates options and builds the shared pipeline context. A nil
// run context is tolerated (treated as context.Background()) so internal
// callers and tests need no ceremony.
func newCtx(run context.Context, g *graph.Graph, opt Options) (*ctx, error) {
	return newCtxPi(run, g, opt, nil)
}

// newCtxPi is newCtx with a precomputed splitting-cost measure π for g
// (nil computes it here). The multilevel driver overlaps the next level's
// π sweep with the current level's refine and passes the result down; the
// values are bit-identical to an in-context computation at any
// parallelism, so the overlap never changes a coloring.
func newCtxPi(run context.Context, g *graph.Graph, opt Options, pi []float64) (*ctx, error) {
	p := opt.P
	if p == 0 {
		p = 2
	}
	if p <= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("core: P must be > 1, got %v", opt.P)
	}
	par := opt.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	sp := opt.Splitter
	spDefault := sp == nil
	if spDefault {
		rf := splitter.NewRefined(g, splitter.NewBFS(g))
		rf.Par = par
		sp = rf
	}
	if run == nil {
		run = context.Background()
	}
	// Stash the resolved values back into the ctx's option copy so stages
	// (and the multilevel driver's per-level inner runs) see exactly what
	// this run uses, not the caller's unresolved zeros.
	opt.P = p
	opt.Splitter = sp
	opt.Parallelism = par
	if pi == nil {
		// The π sweep is the pow-heavy prelude of every run; fan it across
		// the pool (bit-identical at any parallelism — each π(v) is an
		// independent per-vertex sum). The multilevel driver prefetches the
		// next level's π while the current level refines and hands it in
		// here via Pipeline.withPi.
		pi = measure.SplittingCostPar(g, p, 1, par)
	}
	c := &ctx{
		g:         g,
		sp:        sp,
		spDefault: spDefault,
		p:         p,
		pi:        pi,
		opt:       opt,
		par:       par,
		run:       run,
		obs:       opt.Observer,
	}
	// Done() is nil for Background-style contexts, which keeps the
	// interrupted() checkpoint free on un-cancellable runs.
	c.done = run.Done()
	if par > 1 {
		c.sem = make(chan struct{}, par-1)
	}
	return c, nil
}

// TheoremBound returns the Theorem 5 upper-bound shape
// ‖c‖_p/k^{1/p} + ‖c‖∞ (without the σ_p and constant factors), used by the
// experiment harness to normalize measured boundary costs.
func TheoremBound(g *graph.Graph, k int, p float64) float64 {
	if math.IsInf(p, 1) {
		return 2 * g.MaxCost()
	}
	return g.CostNorm(p)/math.Pow(float64(k), 1/p) + g.MaxCost()
}

// MultiBalanced exposes the Lemma 6 stage: a k-coloring balanced with
// respect to every measure in ms with small *average* boundary cost.
func MultiBalanced(ctx context.Context, g *graph.Graph, opt Options, ms [][]float64) ([]int32, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	c, err := newCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	chi := c.multiBalanced(opt.K, ms)
	if err := c.run.Err(); err != nil {
		return nil, err
	}
	return chi, nil
}

// MinMaxBalanced exposes the Proposition 7 stage: a k-coloring balanced in
// the given measures (plus π) with small *maximum* boundary cost.
func MinMaxBalanced(ctx context.Context, g *graph.Graph, opt Options, ms [][]float64) ([]int32, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: K must be ≥ 1, got %d", opt.K)
	}
	c, err := newCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	chi2 := c.minMaxBalanced(opt.K, ms)
	if err := c.run.Err(); err != nil {
		return nil, err
	}
	return chi2, nil
}

// AlmostStrict exposes the Proposition 11 stage on an existing coloring.
func AlmostStrict(ctx context.Context, g *graph.Graph, opt Options, chi []int32) ([]int32, error) {
	if len(chi) != g.N() {
		return nil, fmt.Errorf("core: coloring length %d != N %d", len(chi), g.N())
	}
	if err := graph.CheckColoring(chi, opt.K); err != nil {
		return nil, err
	}
	c, err := newCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	out := c.almostStrict(chi, opt.K, opt.PaperShrink)
	if err := c.run.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// StrictBalance exposes the Proposition 12 stage (BinPack2) on an existing
// coloring; the result is strictly balanced per Definition 1 (with the
// chunked-greedy backstop applied if needed).
func StrictBalance(ctx context.Context, g *graph.Graph, opt Options, chi []int32) ([]int32, error) {
	if len(chi) != g.N() {
		return nil, fmt.Errorf("core: coloring length %d != N %d", len(chi), g.N())
	}
	if err := graph.CheckColoring(chi, opt.K); err != nil {
		return nil, err
	}
	c, err := newCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	out := c.binPack2(chi, opt.K)
	if !graph.IsStrictlyBalanced(g, out, opt.K) {
		out = c.chunkedGreedy(out, opt.K)
	}
	// Like Decompose/Refine, a cancellation wins over the (possibly
	// half-chunked) coloring — without this, chunkedGreedy's cancel path
	// could leak -1 entries behind a nil error.
	if err := c.run.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
