package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/splitter"
)

// ctx bundles the graph, the splitting-set oracle and the Hölder exponent
// that all pipeline stages share, plus the bounded worker pool that the
// parallel stages draw from and the run's cancellation context.
//
// Concurrency contract: every field is written only before the first pool
// worker is spawned (newCtx, plus the driver's diag and countingSplitter
// wrap of sp) and read-only afterwards (sem carries tokens, never data),
// so ctx methods may run from multiple pool workers at once as long as
// each worker only writes state it owns. The splitting oracle sp must be
// safe for concurrent use (see splitter.Splitter); all in-tree
// implementations are stateless.
//
// Cancellation contract: stages poll interrupted() at their checkpoints
// (every oracle call, every pool-work item, every rebalance move, every
// polish round) and unwind with whatever partial coloring they hold; the
// entry points (Decompose, Refine) then discard the partial coloring and
// return run.Err(). A cancelled run therefore never yields a Result, and
// the pool drains itself — workers stop pulling indices, so no goroutine
// outlives the entry point's return.
type ctx struct {
	g   *graph.Graph
	sp  splitter.Splitter
	p   float64
	pi  []float64 // splitting-cost measure π of Definition 10 (σ_p = 1)
	opt Options   // the run's options, P/Parallelism resolved; Splitter as supplied

	par int           // resolved Options.Parallelism (≥ 1)
	sem chan struct{} // spare-worker tokens; nil when par == 1

	run  context.Context // the run's context (never nil after newCtx)
	done <-chan struct{} // run.Done(), cached; nil for un-cancellable runs
	obs  Observer        // progress hooks; nil when unobserved

	// diag collects the run's Diagnostics. The driver sets it before any
	// stage runs; only ctxs that stage-level tests build outside it lack it,
	// and those never open a stage window.
	diag *Diagnostics
}

// interrupted reports whether the run's context has been cancelled. It is
// the single cancellation checkpoint predicate; a nil done channel (a
// Background-style context) makes it free.
func (c *ctx) interrupted() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// split consults the splitting oracle under the run's context. Once the
// run is cancelled it short-circuits to nil — the "no progress" value every
// stage treats as a signal to unwind — without invoking the oracle at all.
// A nil run (a ctx built directly by stage-level tests, bypassing newCtx)
// degrades to Background so oracles always see a non-nil context.
func (c *ctx) split(W []int32, w []float64, target float64) []int32 {
	if c.interrupted() {
		return nil
	}
	run := c.run
	if run == nil {
		run = context.Background()
	}
	return c.sp.Split(run, W, w, target)
}

// stageEnter / stageLeave / polishRound forward to the observer when one is
// attached; nil-observer runs pay only a nil check.
func (c *ctx) stageEnter(s StageName) {
	if c.obs != nil {
		c.obs.StageEnter(s)
	}
}

func (c *ctx) stageLeave(s StageName, took time.Duration) {
	if c.obs != nil {
		c.obs.StageLeave(s, took)
	}
}

func (c *ctx) polishRound(round int, improved bool) {
	if c.obs != nil {
		c.obs.PolishRound(round, improved)
	}
}

// parallelCutoff is the minimum subproblem size (vertices) for which
// spawning a pool worker pays off. Every oracle call allocates Θ(N) masks,
// so even small splits dwarf the ~µs goroutine overhead; the cutoff only
// guards the leaf-level recursion on near-empty sets.
const parallelCutoff = 64

// acquire reserves a spare-worker token for a subproblem of n vertices.
// It never blocks: it returns false when parallelism is disabled, the pool
// is saturated, or the subproblem is below the cutoff — callers then run
// inline, which keeps the pool deadlock-free by construction (a worker
// waiting for its children always has them running somewhere).
func (c *ctx) acquire(n int) bool {
	if c.sem == nil || n < parallelCutoff {
		return false
	}
	select {
	case c.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a token taken by acquire.
func (c *ctx) release() { <-c.sem }

// parRange runs f(i) for every i in [0, n), fanning the indices across
// however many pool workers are currently free (plus the calling
// goroutine). f must only write state owned by index i; the iteration
// order is unspecified but every index runs exactly once, so any
// per-index output is deterministic. Falls back to a plain loop when the
// pool is unavailable. Once the run is cancelled, workers stop pulling
// new indices — some indices then never run, which is safe because the
// entry points discard the partial coloring of a cancelled run.
func (c *ctx) parRange(n int, f func(i int)) {
	if c.sem == nil || n < 2 {
		for i := 0; i < n; i++ {
			if c.interrupted() {
				return
			}
			f(i)
		}
		return
	}
	var next int64
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n || c.interrupted() {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case c.sem <- struct{}{}:
			wg.Add(1)
			//repro:nondeterministic-ok parRange workers claim disjoint chunks off an atomic counter and write disjoint index ranges; the caller joins before reading — DESIGN.md §14
			go func() {
				defer wg.Done()
				defer c.release()
				work()
			}()
			continue
		default:
		}
		break
	}
	work()
	wg.Wait()
}

// sumOver returns Σ_{v∈U} m[v].
func sumOver(m []float64, U []int32) float64 {
	s := 0.0
	for _, v := range U {
		s += m[v]
	}
	return s
}

// maxOver returns max_{v∈U} m[v] (0 for empty U).
func maxOver(m []float64, U []int32) float64 {
	mx := 0.0
	for _, v := range U {
		if m[v] > mx {
			mx = m[v]
		}
	}
	return mx
}

// totalOf returns ‖m‖₁.
func totalOf(m []float64) float64 {
	s := 0.0
	for _, x := range m {
		s += x
	}
	return s
}

// maxOf returns ‖m‖∞.
func maxOf(m []float64) float64 {
	mx := 0.0
	for _, x := range m {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// subtract returns X \ U for vertex lists (U given as a set), in X's
// order. The balance stages call it once per piece they move, so U is
// held in pooled marks rather than a map.
func subtract(X []int32, U []int32) []int32 {
	m := marksOf(U)
	defer m.Release()
	out := make([]int32, 0, len(X)-len(U))
	for _, v := range X {
		if !m.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// removeInPlace deletes the vertices of X from the list U, keeping U's
// order, and returns the shortened list. It compacts U's backing array,
// so the caller must own U and X must not share it (oracle pieces never
// do: see splitter.Splitter). The loops that cut piece after piece off a
// list they own call it instead of subtract, so a piece costs one pass
// over the list and no allocation.
func removeInPlace(U, X []int32) []int32 {
	m := marksOf(X)
	defer m.Release()
	n := 0
	for _, v := range U {
		if !m.Has(v) {
			U[n] = v
			n++
		}
	}
	return U[:n]
}

// marksOf returns pooled marks holding the vertices of X. The caller
// releases them.
func marksOf(X []int32) graph.Marks {
	n := 0
	for _, v := range X {
		n = max(n, int(v)+1)
	}
	m := graph.AcquireMarks(n)
	for _, v := range X {
		m.Mark(v)
	}
	return m
}

// classLists returns the vertex list of each color class of a (possibly
// partial) coloring. Two passes: exact per-class counts first, so the
// multi-megavertex colorings of the multilevel path never pay append
// growth (the lists are the largest transient allocations of the balance
// stages). Each list gets its own exact-capacity backing, so callers may
// append to one without disturbing the others.
func classLists(coloring []int32, k int) [][]int32 {
	counts := make([]int32, k)
	for _, c := range coloring {
		if c >= 0 {
			counts[c]++
		}
	}
	out := make([][]int32, k)
	for c, n := range counts {
		out[c] = make([]int32, 0, n)
	}
	for v, c := range coloring {
		if c >= 0 {
			out[c] = append(out[c], int32(v))
		}
	}
	return out
}

// paint sets coloring[v] = color for all v in X.
func paint(coloring []int32, X []int32, color int32) {
	for _, v := range X {
		coloring[v] = color
	}
}

// boundaryOf returns ∂X in the full graph.
func (c *ctx) boundaryOf(X []int32) float64 {
	return c.g.BoundaryCostOf(X)
}
