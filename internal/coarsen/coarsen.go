// Package coarsen builds deterministic multilevel hierarchies by
// heavy-edge matching contraction — the preprocessing half of the
// multilevel (coarsen → solve → project → refine) decomposition path.
//
// Each level matches vertices to their heaviest-cost unmatched neighbor
// (ties toward the smallest id, vertices visited in ascending id, so the
// hierarchy is a pure function of the graph) and contracts matched pairs
// via graph.ContractPar. Heavy edges disappear inside coarse vertices, which
// is what keeps the boundary cost of a coloring solved on the coarse proxy
// close to one solved directly: the edges that survive to be cut are the
// cheap ones. A weight cap keeps coarse vertices small enough that the
// strict-balance window of Definition 1 stays reachable at the coarsest
// level.
//
// Coarsening stops at a vertex floor, a level cap, or when matching stalls
// (a level that shrinks less than the progress factor is discarded).
// Construction is cancellable between levels and inside the matching
// sweeps; a cancelled Build returns ctx.Err() and no hierarchy.
package coarsen

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Options tunes hierarchy construction. Zero values select the documented
// defaults.
type Options struct {
	// MinVertices stops coarsening once the current level has at most this
	// many vertices (default 1024). The driver raises it to keep several
	// coarse vertices per part, so the coarsest solve is never degenerate.
	MinVertices int
	// MaxLevels caps the hierarchy depth (default 24 — enough to take any
	// int32-indexable graph to the floor at the guaranteed shrink rate).
	MaxLevels int
	// MaxWeight, when positive, forbids matches whose merged vertex weight
	// would exceed it. 0 disables the cap.
	MaxWeight float64
	// Parallelism bounds the worker goroutines of the matching-proposal
	// and contraction sweeps; 0 or 1 runs fully sequentially with no
	// goroutines. The hierarchy is bit-identical at every setting: the
	// parallel phases only precompute per-vertex proposals and per-chunk
	// edge aggregates whose deterministic merge reproduces the sequential
	// sweep exactly (DESIGN.md §14).
	Parallelism int
}

// minShrink is the progress guard: a matching sweep that leaves more than
// this fraction of the vertices (degenerate graphs: stars already
// contracted, weight caps binding everywhere) ends the hierarchy rather
// than stacking near-identical levels.
const minShrink = 0.9

// checkEvery is the cancellation polling stride of the matching sweep:
// every power-of-two-minus-one mask keeps the check branch-predictable
// while bounding the uncancellable stretch to a few thousand vertices.
const checkEvery = 1<<13 - 1

func (o Options) withDefaults() Options {
	if o.MinVertices <= 0 {
		o.MinVertices = 1024
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 24
	}
	return o
}

// Hierarchy is a chain of contractions: Levels[0] contracts Fine, and
// Levels[i] contracts Levels[i-1].Coarse. An empty Levels means the fine
// graph was already at or below the coarsening floor.
type Hierarchy struct {
	Fine   *graph.Graph
	Levels []*graph.Contraction
}

// Coarsest returns the deepest graph of the hierarchy (Fine when no level
// was built).
func (h *Hierarchy) Coarsest() *graph.Graph {
	if len(h.Levels) == 0 {
		return h.Fine
	}
	return h.Levels[len(h.Levels)-1].Coarse
}

// Build constructs the hierarchy for g under opt. ctx cancels construction
// between levels and inside each matching sweep; a cancelled Build returns
// ctx.Err(). The matching and contraction workspaces are drawn once from
// the pooled graph scratch and reused across every level, so a Build
// allocates only what escapes into the hierarchy itself.
func Build(ctx context.Context, g *graph.Graph, opt Options) (*Hierarchy, error) {
	opt = opt.withDefaults()
	h := &Hierarchy{Fine: g}
	cur := g
	ms := graph.AcquireMatchScratch(g.N())
	defer ms.Release()
	for len(h.Levels) < opt.MaxLevels && cur.N() > opt.MinVertices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		assign, coarseN, err := heavyEdgeMatch(ctx, cur, opt.MaxWeight, opt.Parallelism, ms)
		if err != nil {
			return nil, err
		}
		if float64(coarseN) > minShrink*float64(cur.N()) {
			break
		}
		con, err := graph.ContractPar(cur, assign, coarseN, opt.Parallelism)
		if err != nil {
			return nil, err
		}
		h.Levels = append(h.Levels, con)
		cur = con.Coarse
	}
	return h, nil
}

// matchParCutoff is the minimum vertex count for which the parallel
// proposal sweep pays for its goroutine plumbing; below it the resolve
// loop scans inline exactly as the sequential path does.
const matchParCutoff = 1 << 14

// heavyEdgeMatch computes one level's assignment: visiting vertices in
// ascending id, each unmatched vertex pairs with its unmatched neighbor of
// maximum edge cost (ties toward the smallest neighbor id) whose merged
// weight respects the cap, or stays a singleton. Coarse ids are issued in
// discovery order, so the assignment is deterministic. With par > 1 the
// neighbor scans are hoisted into the parallel proposal sweep
// (proposeMatches); the resolve loop below then consumes proposals in the
// identical ascending-id order, so the assignment is bit-identical to the
// sequential sweep's. The returned slice aliases ms and is valid until the
// next call with the same workspace.
func heavyEdgeMatch(ctx context.Context, g *graph.Graph, maxWeight float64, par int, ms *graph.MatchScratch) ([]int32, int, error) {
	n := g.N()
	assign := ms.Assign[:n]
	for i := range assign {
		assign[i] = -1
	}
	var pref []int32
	if par > 1 && n >= matchParCutoff {
		pref = ms.Pref[:n]
		if err := proposeMatches(ctx, g, maxWeight, pref, par); err != nil {
			return nil, 0, err
		}
	}
	next := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if v&checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if assign[v] >= 0 {
			continue
		}
		best := int32(-1)
		// A still-unmatched proposal is exactly the vertex the sequential
		// scan would pick: it maximizes edge cost over a superset of the
		// unmatched cap-admissible candidates (with the identical lowest-id
		// tie-break), so membership in the subset makes it the subset's
		// argmax too. Only a consumed proposal forces a rescan; pref[v] < 0
		// means no neighbor is cap-admissible at all, so the sequential
		// scan would come up empty as well.
		if pref != nil {
			if b := pref[v]; b < 0 {
				assign[v] = next
				next++
				continue
			} else if assign[b] < 0 {
				best = b
			} else {
				best = scanBestMatch(g, assign, v, maxWeight)
			}
		} else {
			best = scanBestMatch(g, assign, v, maxWeight)
		}
		assign[v] = next
		if best >= 0 {
			assign[best] = next
		}
		next++
	}
	return assign, int(next), nil
}

// scanBestMatch is the sequential candidate scan: v's unmatched neighbor
// of maximum edge cost (ties toward the smallest id) whose merged weight
// respects the cap, or −1.
func scanBestMatch(g *graph.Graph, assign []int32, v int32, maxWeight float64) int32 {
	best := int32(-1)
	bestCost := -1.0
	for _, e := range g.IncidentEdges(v) {
		o := g.Other(e, v)
		if assign[o] >= 0 {
			continue
		}
		if maxWeight > 0 && g.Weight[v]+g.Weight[o] > maxWeight {
			continue
		}
		if c := g.Cost[e]; c > bestCost || (c == bestCost && (best < 0 || o < best)) {
			best, bestCost = o, c
		}
	}
	return best
}

// matchChunk is the vertex granularity of the proposal sweep's work items;
// each chunk boundary doubles as a cancellation checkpoint, bounding the
// uncancellable stretch like checkEvery does for the resolve loop.
const matchChunk = 8192

// proposeMatches is the parallel half of the matching sweep: pref[v]
// becomes v's neighbor of maximum edge cost (ties toward the smallest id)
// among those the weight cap admits, ignoring matched state — weights are
// static during a sweep, so cap admissibility is too, making every
// proposal a pure per-vertex function of the graph. Workers pull
// contiguous vertex chunks off an atomic counter and write only their own
// chunk's entries, so the proposal array is deterministic regardless of
// scheduling; the resolve loop in heavyEdgeMatch turns it into the
// bit-identical sequential assignment (DESIGN.md §14).
func proposeMatches(ctx context.Context, g *graph.Graph, maxWeight float64, pref []int32, par int) error {
	n := len(pref)
	nChunks := (n + matchChunk - 1) / matchChunk
	var next int64
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= nChunks || ctx.Err() != nil {
				return
			}
			lo := i * matchChunk
			hi := lo + matchChunk
			if hi > n {
				hi = n
			}
			for v := int32(lo); int(v) < hi; v++ {
				best := int32(-1)
				bestCost := -1.0
				for _, e := range g.IncidentEdges(v) {
					o := g.Other(e, v)
					if maxWeight > 0 && g.Weight[v]+g.Weight[o] > maxWeight {
						continue
					}
					if c := g.Cost[e]; c > bestCost || (c == bestCost && (best < 0 || o < best)) {
						best, bestCost = o, c
					}
				}
				pref[v] = best
			}
		}
	}
	workers := par
	if workers > nChunks {
		workers = nChunks
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		//repro:nondeterministic-ok proposal workers write disjoint pref ranges per chunk; the resolve loop replays them in ascending-id order — DESIGN.md §14
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctx.Err()
}
