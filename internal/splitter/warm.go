package splitter

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// Warm is the cross-level oracle of the multilevel path: a prefix splitter
// whose vertex order is seeded from a prior coloring — in the multilevel
// pipeline, the coarse cut projected down to this level — instead of
// cold-starting a BFS from the smallest vertex id.
//
// The seeding exploits where per-level oracle calls come from: the refine
// stages split pieces off one prior class at a time, and a piece carved
// outward from the class's existing border re-uses cut edges the coarse
// solve already paid for, while a piece grown from an arbitrary interior
// vertex must buy a brand-new perimeter. Warm therefore orders W by a
// multi-source BFS within G[W] whose sources are W's frontier vertices
// under the prior (those with a neighbor — inside W or out — colored
// differently), in ascending id; unreached components follow BFS-from-
// smallest-id, exactly like the cold order. When the prior induces no
// frontier in W at all, Warm defers to its Inner splitter, so it is a
// strict generalization of the cold-start oracle.
//
// Determinism and the oracle contract: the order is a pure function of
// (G, Prior, W) — sources are sorted, the BFS is the deterministic Sub
// traversal — and the prefix selection is BestPrefix, so Warm meets the
// Definition 3 window exactly like OrderedPrefix and is bit-identical at
// every Parallelism (it spawns no goroutines). Prior is captured at
// construction and never mutated by the pipeline (stages work on private
// copies), satisfying the concurrency contract for concurrent Split calls.
type Warm struct {
	G *graph.Graph
	// Inner is the fallback oracle for calls whose W has no prior
	// frontier (e.g. a W entirely interior to one class of a one-class
	// prior).
	Inner Splitter
	// Prior is the seeding coloring, indexed by vertex id of G. Vertices
	// may carry −1 (uncolored); they seed no frontier.
	Prior []int32

	// hits counts Split calls served from the warm frontier order (the
	// remainder fell back to Inner). Incremented atomically: the oracle is
	// consulted concurrently from pool workers.
	hits int64 //repro:atomic incremented from concurrent Split calls, read after the run joins
}

// NewWarm wraps inner with warm-start ordering on graph g, seeded by the
// prior coloring (length g.N(); entries may be −1 for uncolored).
func NewWarm(g *graph.Graph, inner Splitter, prior []int32) *Warm {
	return &Warm{G: g, Inner: inner, Prior: prior}
}

// Hits reports how many Split calls were served from the warm frontier
// order. Read it only after the run using the oracle has returned (the
// pipeline's workers have joined by then, so the count is stable).
func (s *Warm) Hits() int64 { return atomic.LoadInt64(&s.hits) }

// Split implements Splitter: Inner's piece when W has no frontier under
// Prior, and BestPrefix(warmOrder(G, Prior, W), w, target) otherwise,
// computed by warmPrefix without ordering all of W.
func (s *Warm) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	if ctx.Err() != nil {
		return nil
	}
	U, hit := warmPrefix(s.G, s.Prior, W, w, target)
	if !hit {
		return s.Inner.Split(ctx, W, w, target)
	}
	atomic.AddInt64(&s.hits, 1)
	return U
}

// warmPrefix returns BestPrefix(warmOrder(g, prior, W), w, target), byte
// for byte, and whether W has a frontier under prior. When W's weights
// allow it (streamable), it feeds the warm order to the prefix rule vertex
// by vertex and stops at the pivot.
func warmPrefix(g *graph.Graph, prior, W []int32, w []float64, target float64) ([]int32, bool) {
	sorted, ok := streamable(W, w)
	if !ok {
		order := warmOrder(g, prior, W)
		return BestPrefix(order, w, target), order != nil
	}
	p := newPrefixCut(w, target)
	order, pivot := warmStream(g, prior, W, sorted, p.add)
	return p.cut(order, pivot), order != nil
}

// warmOrder orders W by a multi-source BFS within G[W] seeded from W's
// frontier under prior (ascending id), with unreached components appended
// by BFS from their smallest unvisited id. Returns nil when the prior
// induces no frontier in W — the caller's signal to fall back to a cold
// oracle. Deterministic: a pure function of (g, prior, W).
func warmOrder(g *graph.Graph, prior []int32, W []int32) []int32 {
	sorted := slices.Clone(W)
	slices.Sort(sorted)
	order, _ := warmStream(g, prior, W, sorted, nil)
	return order
}

// warmStream produces warmOrder's order of W, given W's ids in ascending
// order, and calls stop after each vertex the way graph's MultiBFSPrefix
// does, returning the order up to the vertex where stop reports true. The
// order opens with W's frontier in ascending id, which needs no
// traversal: only a stream that runs past the frontier views G[W] and
// walks on from it. A nil order means W has no frontier.
func warmStream(g *graph.Graph, prior, W, sorted []int32, stop func(int32) bool) ([]int32, bool) {
	var frontier []int32
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] || !onFrontier(g, prior, v) {
			continue
		}
		frontier = append(frontier, v)
		if stop != nil && stop(v) {
			return frontier, true
		}
	}
	if len(frontier) == 0 {
		return nil, false
	}
	sub := graph.NewSub(g, W)
	defer sub.Release()
	if stop == nil {
		return sub.MultiBFSPrefix(frontier, sorted, nil)
	}
	// stop has seen the frontier, which the traversal emits first again.
	seen := 0
	return sub.MultiBFSPrefix(frontier, sorted, func(v int32) bool {
		if seen < len(frontier) {
			seen++
			return false
		}
		return stop(v)
	})
}

// onFrontier reports whether v is colored under prior and has a neighbor,
// inside W or out, colored differently.
func onFrontier(g *graph.Graph, prior []int32, v int32) bool {
	pv := prior[v]
	if pv < 0 {
		return false
	}
	for _, e := range g.IncidentEdges(v) {
		if po := prior[g.Other(e, v)]; po >= 0 && po != pv {
			return true
		}
	}
	return false
}
