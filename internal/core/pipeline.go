package core

// This file is the run driver. Theorem 4's algorithm is one fixed
// sequence, Proposition 7 → 11 → 12, plus the engineering polish pass, and
// every run executes one of two arrangements of it: decompose (the whole
// sequence, or the multilevel path in its place) and refine (Propositions
// 11 → 12 only while the prior coloring is no longer strictly balanced,
// then polish). drive owns the work every run shares: option validation,
// the oracle call counter, Diagnostics, the chunked-greedy strictness
// backstop, the rule that a cancellation wins over a computed coloring,
// and the structural coloring check. stage brackets each stage body with
// its Observer events and Diagnostics duration and checks cancellation
// after it.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
)

// drive runs one decomposition of g under opt. A nil prior runs the
// decompose sequence; otherwise refine resumes from a private copy of
// prior (the caller's slice is never mutated) and polishes the closed
// neighborhood of dirty, or the whole graph when dirty is nil. pi, when
// non-nil, is g's splitting-cost measure computed ahead of the run (see
// newCtx). Decompose, Refine and the multilevel path's per-level runs all
// come through here.
func drive(run context.Context, g *graph.Graph, opt Options, pi []float64, prior, dirty []int32) (Result, error) {
	c, err := newCtx(run, g, opt, pi)
	if err != nil {
		return Result{}, err
	}
	k := opt.K
	if g.N() == 0 {
		return Result{Coloring: []int32{}, Stats: graph.ColoringStats{K: k}}, nil
	}
	var diag Diagnostics
	diag.Parallelism = c.par
	c.diag = &diag
	// The counter is shared by every pool worker that consults the oracle,
	// hence atomic (countingSplitter documents the contract).
	c.sp = countingSplitter{inner: c.sp, calls: &diag.SplitterCalls, obs: c.obs}
	start := time.Now() //repro:nondeterministic-ok run timing feeds Diagnostics.Total only, never the coloring — DESIGN.md §13

	var chi []int32
	if prior == nil {
		chi, err = c.decompose()
	} else {
		chi, err = c.refine(slices.Clone(prior), dirty)
	}
	if err != nil {
		return Result{}, err
	}
	diag.Total = time.Since(start) //repro:nondeterministic-ok run timing feeds Diagnostics.Total only, never the coloring — DESIGN.md §13

	res := Result{Coloring: chi, Diag: diag}
	res.Stats = graph.Stats(g, chi, k)
	if !res.Stats.StrictlyBalanced {
		// Degenerate inputs (e.g. wildly heavy vertices) can defeat the
		// practical constants; the chunked-greedy backstop is always strict.
		chi = c.chunkedGreedy(chi, k)
		res.Coloring = chi
		res.Stats = graph.Stats(g, chi, k)
		res.UsedFallback = true
	}
	// A cancellation that lands after the last stage's check must still win
	// over the assembled result: the caller's context is dead, and the
	// backstop may have run on a half-finished coloring.
	if err := c.run.Err(); err != nil {
		return Result{}, err
	}
	if err := graph.CheckColoring(chi, k); err != nil {
		return Result{}, fmt.Errorf("core: internal error: %w", err)
	}
	return res, nil
}

// decompose is the sequence of a Decompose run: Proposition 7 (or Lemma 6
// under the SkipBoundaryBalance ablation) produces a weakly balanced
// coloring from scratch, Propositions 11 → 12 make it strictly balanced,
// and polish shrinks its boundary. With Options.Multilevel set, the
// multilevel stage runs instead.
func (c *ctx) decompose() ([]int32, error) {
	if c.opt.Multilevel != nil {
		return c.stage(StageMultilevel, c.multilevel)
	}
	chi, err := c.stage(StageMultiBalance, func() ([]int32, error) {
		user := append([][]float64{c.g.Weight}, c.opt.Measures...)
		if c.opt.SkipBoundaryBalance {
			return c.multiBalanced(c.opt.K, append([][]float64{c.pi}, user...)), nil
		}
		return c.minMaxBalanced(c.opt.K, user), nil
	})
	if err != nil {
		return nil, err
	}
	if chi, err = c.toStrict(chi); err != nil {
		return nil, err
	}
	return c.polishPass(chi, nil)
}

// refine is the sequence of a Refine run on the prior coloring chi.
// Propositions 11 → 12 run only when chi is no longer strictly balanced,
// so a strict prior skips to polish with zero oracle calls and no
// almoststrict/strictpack events. Once the check fails, both run, even if
// Proposition 11 alone restores strictness.
func (c *ctx) refine(chi, dirty []int32) ([]int32, error) {
	if !graph.IsStrictlyBalanced(c.g, chi, c.opt.K) {
		var err error
		if chi, err = c.toStrict(chi); err != nil {
			return nil, err
		}
	}
	return c.polishPass(chi, dirty)
}

// toStrict is Proposition 11 (shrink, or direct rebalancing) followed by
// Proposition 12 (BinPack2). The SkipShrink ablation empties the
// Proposition 11 body; its stage events still fire.
func (c *ctx) toStrict(chi []int32) ([]int32, error) {
	chi, err := c.stage(StageAlmostStrict, func() ([]int32, error) {
		if c.opt.SkipShrink {
			return chi, nil
		}
		return c.almostStrict(chi, c.opt.K, c.opt.PaperShrink), nil
	})
	if err != nil {
		return nil, err
	}
	return c.stage(StageStrictPack, func() ([]int32, error) { return c.binPack2(chi, c.opt.K), nil })
}

// polishPass is the strictness-preserving boundary polish pass over the
// closed neighborhood of dirty (nil: the whole graph). It runs only on a
// strictly balanced coloring, because its moves are checked against the
// Definition 1 window, and honors the SkipPolish ablation.
func (c *ctx) polishPass(chi, dirty []int32) ([]int32, error) {
	return c.stage(StagePolish, func() ([]int32, error) {
		if c.opt.SkipPolish || !graph.IsStrictlyBalanced(c.g, chi, c.opt.K) {
			return chi, nil
		}
		return c.polish(chi, c.opt.K, 3, dirty), nil
	})
}

// stage runs one stage body inside its stageWindow, then checks the run
// for cancellation. A body error or a cancellation ends the sequence; the
// driver then discards whatever coloring the body left behind, so bodies
// may unwind early with a partial one.
func (c *ctx) stage(name StageName, body func() ([]int32, error)) (chi []int32, err error) {
	c.stageWindow(name, func() { chi, err = body() })
	if err == nil {
		err = c.run.Err()
	}
	return chi, err
}

// stageWindow runs body inside a StageEnter/StageLeave bracket, recording
// the wall time into the run's Diagnostics. The leave fires from a defer,
// so the pair balances on every path — normal completion, error return,
// cancellation, and panic. Serving layers key in-flight metrics windows
// on the pair, which is why the stagepair analyzer (DESIGN.md §13)
// insists on exactly this shape.
func (c *ctx) stageWindow(name StageName, body func()) {
	// The wall-clock reads below feed Diagnostics durations and Observer
	// timings only; they never influence the coloring (DESIGN.md §13
	// audits the carve-out).
	mark := time.Now() //repro:nondeterministic-ok stage timing feeds Diagnostics only, never the coloring — DESIGN.md §13
	c.stageEnter(name)
	defer func() {
		took := time.Since(mark) //repro:nondeterministic-ok stage timing feeds Diagnostics only, never the coloring — DESIGN.md §13
		c.diag.record(name, took)
		c.stageLeave(name, took)
	}()
	body()
}
