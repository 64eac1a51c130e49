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

// Split implements Splitter.
func (s *Warm) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	if ctx.Err() != nil {
		return nil
	}
	order := warmOrder(s.G, s.Prior, W)
	if order == nil {
		return s.Inner.Split(ctx, W, w, target)
	}
	atomic.AddInt64(&s.hits, 1)
	return BestPrefix(order, w, target)
}

// warmOrder orders W by a multi-source BFS within G[W] seeded from W's
// frontier under prior (ascending id), with unreached components appended
// by BFS from their smallest unvisited id. Returns nil when the prior
// induces no frontier in W — the caller's signal to fall back to a cold
// oracle. Deterministic: a pure function of (g, prior, W).
func warmOrder(g *graph.Graph, prior []int32, W []int32) []int32 {
	sorted := slices.Clone(W)
	slices.Sort(sorted)
	var frontier []int32
	for _, v := range sorted {
		pv := prior[v]
		if pv < 0 {
			continue
		}
		for _, e := range g.IncidentEdges(v) {
			if po := prior[g.Other(e, v)]; po >= 0 && po != pv {
				frontier = append(frontier, v)
				break
			}
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	sub := graph.NewSub(g, W)
	defer sub.Release()
	return sub.MultiBFSOrder(frontier, sorted)
}
