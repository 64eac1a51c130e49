package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
)

// Observer re-exports the pipeline progress-hook interface: stage
// enter/leave, oracle calls and polish rounds. Attach one to an Engine
// with WithObserver (or per-run via Options.Observer).
type Observer = core.Observer

// NopObserver re-exports the embeddable do-nothing Observer.
type NopObserver = core.NopObserver

// StageName re-exports the pipeline stage identifier used by Observer
// events and Diagnostics durations.
type StageName = core.StageName

// The pipeline stages, in the order a full direct Partition visits them; a
// Repartition resumes at StageAlmostStrict (or straight at StagePolish
// when the prior coloring is still strictly balanced), and a multilevel
// Partition opens with StageMultilevel/StageCoarsen before the per-level
// inner pipelines replay the classic stages.
const (
	StageMultiBalance = core.StageMultiBalance
	StageAlmostStrict = core.StageAlmostStrict
	StageStrictPack   = core.StageStrictPack
	StagePolish       = core.StagePolish
	StageCoarsen      = core.StageCoarsen
	StageMultilevel   = core.StageMultilevel
)

// VerifyPolicy selects how much result auditing an Engine performs.
type VerifyPolicy int

const (
	// VerifyNever trusts the pipeline (the default): results are returned
	// as computed. The pipeline already self-checks strictness and falls
	// back to the chunked-greedy backstop, so this is safe for all
	// non-adversarial deployments.
	VerifyNever VerifyPolicy = iota
	// VerifyResults re-derives every result's hard guarantees (complete
	// coloring, Definition 1 strict balance, boundary consistency) via
	// Verify before returning it; a violation becomes an error. Costs one
	// O(n + m) audit pass per run — the belt-and-suspenders mode for
	// serving layers that must not emit an uncertified coloring.
	VerifyResults
)

// Multilevel re-exports the multilevel-path configuration (coarsen →
// solve → project → refine): set it per run via Options.Multilevel, or
// engine-wide via WithMultilevel. The zero value selects every default.
type Multilevel = core.Multilevel

// Engine is the configured entry point of the decomposition API: construct
// one per deployment (it is cheap and safe for concurrent use), then
// partition graphs through it — one-shot via Partition / Batch, or
// session-wise via NewInstance for repeated queries against the same
// topology. An Engine carries policy only (parallelism, multilevel path,
// verification, observability); all per-graph state lives in Instances.
// The splitting oracle is per run: Options.Splitter when the caller
// supplies one, else core's default FM-refined BFS oracle.
type Engine struct {
	par          int
	ml           *Multilevel
	verify       VerifyPolicy
	verifyFactor float64
	obs          Observer
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithParallelism sets the default worker-pool bound for runs whose
// Options.Parallelism is 0 (the per-call value still wins when set). 0
// means runtime.GOMAXPROCS(0); 1 pins runs sequential — bit-identical
// colorings at every setting, per the core determinism contract.
func WithParallelism(n int) EngineOption {
	return func(e *Engine) { e.par = n }
}

// WithObserver attaches progress hooks to every run whose
// Options.Observer is nil, Batch instances included. The observer must be
// cheap and safe for concurrent use (see Observer): events from
// concurrent runs interleave with no run identity.
func WithObserver(o Observer) EngineOption {
	return func(e *Engine) { e.obs = o }
}

// WithMultilevel routes every full decomposition whose Options.Multilevel
// is nil through the multilevel (coarsen → solve → project → refine) path
// with the given configuration (the zero Multilevel selects the documented
// defaults). The strict-balance guarantee is unchanged; boundary cost pays
// a small documented factor for solving on the coarse proxy, and oracle-
// bound instances get a large wall-clock win. Incremental resumes
// (Repartition) are unaffected — they already start from a projected-
// quality prior. Runs that set Options.Multilevel explicitly still win,
// and Options.Measures is incompatible with the multilevel path.
func WithMultilevel(m Multilevel) EngineOption {
	return func(e *Engine) { e.ml = &m }
}

// WithVerification sets the result-auditing policy.
func WithVerification(p VerifyPolicy) EngineOption {
	return func(e *Engine) { e.verify = p }
}

// WithVerificationFactor sets the advisory Theorem 4 bound multiplier
// recorded by VerifyResults audits (default 20). The advisory bound never
// fails a result — only the hard guarantees do.
func WithVerificationFactor(f float64) EngineOption {
	return func(e *Engine) { e.verifyFactor = f }
}

// NewEngine builds an Engine from the given options.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{verifyFactor: 20}
	for _, o := range opts {
		o(e)
	}
	return e
}

// resolve fills a run's options from the engine's policy: parallelism,
// observer and multilevel defaults. It never picks an oracle: a nil
// Splitter is core's to fill, which is what lets the multilevel path
// warm-start every level.
func (e *Engine) resolve(opt Options) Options {
	if opt.Parallelism == 0 {
		opt.Parallelism = e.par
	}
	if opt.Observer == nil {
		opt.Observer = e.obs
	}
	if opt.Multilevel == nil && e.ml != nil && len(opt.Measures) == 0 {
		// Measures runs stay on the direct path: the multilevel path does
		// not support them, and the engine-wide default must not turn a
		// valid multi-balanced request into an error.
		ml := *e.ml
		opt.Multilevel = &ml
	}
	return opt
}

// audit applies the engine's verification policy to a computed result.
func (e *Engine) audit(g *graph.Graph, opt Options, res Result) error {
	if e.verify == VerifyNever {
		return nil
	}
	v := core.Verify(g, opt, res, e.verifyFactor)
	if !v.OK() {
		return fmt.Errorf("repro: result failed verification: %s", strings.Join(v.Errors, "; "))
	}
	return nil
}

// Partition computes a strictly balanced k-coloring of g with small
// maximum boundary cost under the engine's policy, using the default
// FM-refined BFS splitting oracle. ctx cancels the run
// mid-pipeline; a cancelled run returns ctx.Err() and no Result.
func (e *Engine) Partition(ctx context.Context, g *graph.Graph, k int) (Result, error) {
	return e.PartitionWithOptions(ctx, g, Options{K: k})
}

// PartitionWithOptions runs the pipeline with explicit options, filling
// unset fields from the engine's policy.
func (e *Engine) PartitionWithOptions(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	opt = e.resolve(opt)
	res, err := core.Decompose(ctx, g, opt)
	if err != nil {
		return Result{}, err
	}
	if err := e.audit(g, opt, res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// PartitionGrid partitions a d-dimensional grid graph with the paper's
// exact GridSplit oracle (Section 6, Theorem 19) and the canonical
// exponent p = d/(d−1), in place of the default oracle.
func (e *Engine) PartitionGrid(ctx context.Context, gr *grid.Grid, k int) (Result, error) {
	p := gr.P()
	if math.IsInf(p, 1) {
		p = 2
	}
	return e.PartitionWithOptions(ctx, gr.G, Options{K: k, P: p, Splitter: splitter.NewGrid(gr)})
}

// Repartition resumes the pipeline from a prior coloring of a (possibly
// reweighted) graph — the one-shot incremental path. Callers holding a
// session should prefer Instance.Repartition, which also maintains the
// content hash and migration history. ctx cancels the resumed run; the
// prior coloring is never mutated either way.
func (e *Engine) Repartition(ctx context.Context, g *graph.Graph, opt Options, prior []int32) (Result, error) {
	opt = e.resolve(opt)
	res, err := core.Refine(ctx, g, opt, prior, nil)
	if err != nil {
		return Result{}, err
	}
	if err := e.audit(g, opt, res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Batch decomposes a slice of independent instances, fanning them across a
// worker pool of opt.Parallelism goroutines (0 defaults to the engine's
// parallelism, then GOMAXPROCS). Each instance runs the full pipeline with
// intra-instance Parallelism pinned to 1, so every result is byte-identical
// to a standalone sequential run (instance-level fan-out already saturates
// the pool).
//
// Cancellation: once ctx is done, no new instance starts, and in-flight
// instances abort at their next pipeline checkpoint. results[i] pairs with
// gs[i]; cancelled or failed entries are zero Results with their error —
// ctx.Err() for the cancelled ones — aggregated by index in the returned
// *BatchError, so callers can salvage the instances that completed before
// the cut.
//
// opt.Splitter must be nil (oracles are graph-bound; each instance runs
// with core's default oracle for its own graph). The run's Observer —
// opt.Observer, else the engine's — sees every instance's events, which
// interleave across workers with no instance identity (see Observer).
func (e *Engine) Batch(ctx context.Context, gs []*graph.Graph, opt Options) ([]Result, error) {
	if opt.Splitter != nil {
		return nil, fmt.Errorf("repro: Batch requires a nil Splitter (oracles are bound to a single graph)")
	}
	inner := e.resolve(opt)
	// Same resolution rules as Options.Parallelism: 0 defaults to the
	// engine, then the machine width; negatives mean sequential.
	workers := inner.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(gs) {
		workers = len(gs)
	}
	inner.Parallelism = 1

	results := make([]Result, len(gs))
	errs := make([]error, len(gs))
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(gs) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Launch barrier: instances not yet started when the
					// batch is cancelled are reported cancelled, not run.
					errs[i] = err
					continue
				}
				res, err := core.Decompose(ctx, gs[i], inner)
				if err == nil {
					err = e.audit(gs[i], inner, res)
				}
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, &BatchError{Errs: errs}
		}
	}
	return results, nil
}
