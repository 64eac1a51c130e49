package core

import "time"

// StageName identifies one pipeline stage for Observer callbacks and
// Diagnostics. The values match the Diagnostics duration fields: a direct
// Decompose visits the four classic stages in declaration order, a Refine
// resumes at StageAlmostStrict (or straight at StagePolish when the prior
// coloring is still strict), and a multilevel Decompose opens with
// StageMultilevel and StageCoarsen before the per-level inner runs replay
// the classic stages on each graph of the hierarchy.
type StageName string

const (
	// StageMultiBalance is Proposition 7 (or Lemma 6 under the
	// SkipBoundaryBalance ablation): the divide-and-conquer that produces
	// the weakly balanced coloring.
	StageMultiBalance StageName = "multibalance"
	// StageAlmostStrict is Proposition 11 (shrink / direct rebalancing).
	StageAlmostStrict StageName = "almoststrict"
	// StageStrictPack is Proposition 12 (BinPack2).
	StageStrictPack StageName = "strictpack"
	// StagePolish is the strictness-preserving boundary polish pass.
	StagePolish StageName = "polish"
	// StageCoarsen is the multilevel path's hierarchy construction
	// (heavy-edge matching contraction, internal/coarsen).
	StageCoarsen StageName = "coarsen"
	// StageMultilevel brackets the whole multilevel driver: StageCoarsen
	// and the per-level inner pipelines' stage events nest inside its
	// enter/leave pair.
	StageMultilevel StageName = "multilevel"
)

// Observer receives progress callbacks from a pipeline run. It is the
// instrumentation side of the Engine/Instance API: serving layers hang
// metrics and cancellation telemetry off it, examples print live progress.
//
// Contract: callbacks must be cheap and must not block — OracleCall fires
// once per splitting-oracle invocation, which is the pipeline's innermost
// unit of work. When Options.Parallelism ≠ 1 the callbacks arrive from
// multiple worker goroutines concurrently, so implementations must be safe
// for concurrent use. A nil Observer in Options disables all callbacks at
// zero cost.
//
// Attribution: an observer is scoped to wherever it is attached, so an
// engine- or server-wide observer sees the interleaved events of every
// concurrent run with no run identity (OracleCall totals are per-run, so
// the merged stream is not monotonic). When per-run attribution matters,
// attach a fresh observer per run via Options.Observer (or per session
// via the Instance's options) instead of engine-wide. A multilevel run
// additionally nests: after StageCoarsen, the coarsest level runs the
// Decompose stages and every finer level the Refine stages, each on its
// own graph and with its own OracleCall total. Only the coarsest level
// emits StageMultiBalance; every level's run ends with exactly one
// StagePolish pair, so consumers that need level attribution count those.
type Observer interface {
	// StageEnter fires when a pipeline stage begins.
	StageEnter(s StageName)
	// StageLeave fires when a pipeline stage ends (also on a cancelled
	// stage: the pair always balances), with the stage's wall time.
	StageLeave(s StageName, took time.Duration)
	// OracleCall fires after each splitting-oracle invocation with the
	// running total of calls in this run.
	OracleCall(total int64)
	// PolishRound fires after each polish sweep with the 0-based round
	// index and whether the sweep improved the coloring.
	PolishRound(round int, improved bool)
}

// NopObserver is an Observer that ignores every event. Embed it to write
// observers that only care about a subset of the callbacks and stay
// compatible when the interface grows.
type NopObserver struct{}

// StageEnter implements Observer.
func (NopObserver) StageEnter(StageName) {}

// StageLeave implements Observer.
func (NopObserver) StageLeave(StageName, time.Duration) {}

// OracleCall implements Observer.
func (NopObserver) OracleCall(int64) {}

// PolishRound implements Observer.
func (NopObserver) PolishRound(int, bool) {}
