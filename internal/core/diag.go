package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/splitter"
)

// Diagnostics reports where a Decompose run spent its effort. Theorem 4's
// running time is O(t(|G|)·log k) where t is the splitting-oracle cost;
// SplitterCalls makes that oracle complexity observable.
type Diagnostics struct {
	// SplitterCalls counts invocations of the splitting-set oracle. The
	// count is exact and independent of Parallelism: concurrent stages
	// perform the same oracle calls as the sequential run, only interleaved.
	// During a run it is incremented through a stored pointer with
	// sync/atomic (countingSplitter), so the atomicfield analyzer must
	// treat every mutation as atomic-only.
	SplitterCalls int64 //repro:atomic incremented via stored *int64 in countingSplitter

	// Parallelism is the resolved worker-pool bound the run used
	// (Options.Parallelism after defaulting; 1 means fully sequential).
	Parallelism int

	// Levels is the number of coarsening levels the multilevel path built
	// (0 on the direct path and whenever the graph was already at or below
	// the coarsening floor).
	Levels int

	// LevelProfile profiles the multilevel path's per-level solves, from
	// the coarsest solve down to the finest refine (empty on the direct
	// path). The profile is observational only — wall times feed no
	// decision — and is surfaced through the serving layer's DiagWire and
	// the /metrics per-level histograms.
	LevelProfile []LevelDiag

	// Durations of the pipeline stages. On the multilevel path the classic
	// four aggregate across every hierarchy level's inner pipeline, and
	// Coarsen is the hierarchy construction itself.
	MultiBalance time.Duration // Proposition 7 (or Lemma 6 under ablation)
	AlmostStrict time.Duration // Proposition 11
	StrictPack   time.Duration // Proposition 12 (BinPack2)
	Polish       time.Duration
	Coarsen      time.Duration // multilevel hierarchy construction
	Total        time.Duration
}

// LevelDiag profiles one hierarchy level's inner run on the multilevel
// path. Level counts down the hierarchy: len(Levels) is the coarsest
// solve, level i is the refine on contraction i's fine graph, 0 the
// finest. Like the stage durations, wall time is diagnostics-only.
type LevelDiag struct {
	// Level is the hierarchy position (see above).
	Level int
	// Vertices and Edges size the graph solved or refined at this level.
	Vertices, Edges int
	// SplitterCalls counts the inner run's oracle invocations.
	SplitterCalls int64
	// WarmHits counts the oracle calls served from the warm-start frontier
	// order (0 when the level ran a cold or caller-supplied oracle).
	WarmHits int64
	// Duration is the inner run's wall time.
	Duration time.Duration
}

// String renders a one-line summary.
func (d Diagnostics) String() string {
	s := fmt.Sprintf("splits=%d par=%d prop7=%v prop11=%v binpack=%v polish=%v total=%v",
		d.SplitterCalls, d.Parallelism, d.MultiBalance.Round(time.Microsecond),
		d.AlmostStrict.Round(time.Microsecond), d.StrictPack.Round(time.Microsecond),
		d.Polish.Round(time.Microsecond), d.Total.Round(time.Microsecond))
	if d.Levels > 0 || d.Coarsen > 0 {
		s += fmt.Sprintf(" levels=%d coarsen=%v", d.Levels, d.Coarsen.Round(time.Microsecond))
	}
	return s
}

// record accumulates one instrumented stage's wall time into its duration
// field. Accumulation (not assignment) is what makes the multilevel path's
// per-level inner pipelines aggregate naturally.
func (d *Diagnostics) record(name StageName, took time.Duration) {
	switch name {
	case StageMultiBalance:
		d.MultiBalance += took
	case StageAlmostStrict:
		d.AlmostStrict += took
	case StageStrictPack:
		d.StrictPack += took
	case StagePolish:
		d.Polish += took
	case StageCoarsen:
		d.Coarsen += took
	}
}

// absorb folds an inner run's diagnostics into d — the multilevel path's
// accounting for its per-level decompose and refine runs. Parallelism,
// Levels and Total stay the outer run's own.
func (d *Diagnostics) absorb(inner Diagnostics) {
	// Happens-before audit: absorb runs on the multilevel stage's goroutine
	// strictly after the inner run returns, i.e. after its worker pool has
	// joined — no countingSplitter increment can be concurrent with this
	// read-modify-write.
	//repro:atomic-ok absorb runs after the inner run's workers join; no concurrent increments — DESIGN.md §5
	d.SplitterCalls += inner.SplitterCalls
	d.MultiBalance += inner.MultiBalance
	d.AlmostStrict += inner.AlmostStrict
	d.StrictPack += inner.StrictPack
	d.Polish += inner.Polish
	d.Coarsen += inner.Coarsen
}

// countingSplitter decorates a Splitter with a call counter and the
// Observer's OracleCall hook. The counter is incremented atomically because
// the decorated oracle is consulted from every pool worker concurrently;
// the final value is read only after all workers have joined (Decompose
// returns), so no torn read is possible. The observer hook fires with the
// running total, from whichever worker made the call.
type countingSplitter struct {
	inner splitter.Splitter
	calls *int64
	obs   Observer
}

func (cs countingSplitter) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	n := atomic.AddInt64(cs.calls, 1)
	if cs.obs != nil {
		cs.obs.OracleCall(n)
	}
	return cs.inner.Split(ctx, W, w, target)
}
