package graph

// This file provides graph contraction — the quotient of a graph under a
// vertex assignment — and the projection map that lifts colorings across
// it. It is the substrate of the multilevel decomposition path
// (internal/coarsen builds matchings, internal/core drives the solve),
// kept here so the maps live next to the representation they index.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Contraction is the quotient of a fine graph under a surjective vertex
// assignment: coarse vertex weights are the sums of their fine members'
// weights, fine edges between distinct coarse vertices collapse into one
// coarse edge with the summed cost, and fine edges inside a coarse vertex
// disappear. The total weight, the total cost crossing any coarse-
// respecting cut, and in particular the boundary cost of any coloring
// lifted through Project are preserved exactly.
type Contraction struct {
	// Coarse is the quotient graph.
	Coarse *Graph
	// Map[v] is the coarse vertex that fine vertex v collapsed into.
	Map []int32
}

// contractChunk is the coarse-vertex granularity of the parallel edge
// aggregation: each work item sweeps one contiguous range of coarse ids
// into a private buffer, and the buffers concatenate in range order.
const contractChunk = 2048

// contractParCutoff is the minimum fine-edge count for which fanning the
// aggregation sweep across workers pays for the goroutine plumbing.
const contractParCutoff = 1 << 15

// ContractPar builds the quotient of g under assign, which must map every
// fine vertex to a coarse id in [0, coarseN) with every coarse id hit
// (surjectivity keeps the quotient free of phantom isolated vertices).
// O(N + M) with pooled scratch — no sorting, no maps — with the
// aggregation sweeps fanned across up to par worker goroutines. The
// result is bit-identical at every par: coarse weights are
// per-accumulator sums over each coarse vertex's members in ascending
// fine id (the same floating-point order the sequential sweep produces),
// and the coarse edge list is emitted per contiguous coarse-id chunk into
// disjoint offset windows of the exact-length final arrays — each chunk
// counts first, a sequential prefix pass fixes the offsets, and the fill
// sweep lands every edge exactly where the sequential emission would put
// it. The stamped dedup state never crosses a coarse-vertex boundary, so
// any chunking of the id range is exact (DESIGN.md §14). par ≤ 1 runs
// fully sequentially with no goroutines.
func ContractPar(g *Graph, assign []int32, coarseN, par int) (*Contraction, error) {
	n := g.N()
	if len(assign) != n {
		return nil, fmt.Errorf("graph: ContractPar assignment length %d != N %d", len(assign), n)
	}
	if coarseN < 0 || (n > 0 && coarseN < 1) || coarseN > n {
		return nil, fmt.Errorf("graph: ContractPar coarseN %d out of range for N %d", coarseN, n)
	}
	qs := acquireQuotient(coarseN, n)
	defer releaseQuotient(qs)

	// Member-list counting sort (start counts double as the surjectivity
	// check), plus assignment validation in the same sweep.
	start, fill, members := qs.start, qs.fill, qs.memb
	for v, cu := range assign {
		if cu < 0 || int(cu) >= coarseN {
			return nil, fmt.Errorf("graph: ContractPar assignment of vertex %d out of range: %d", v, cu)
		}
		start[cu+1]++
	}
	for cu := 0; cu < coarseN; cu++ {
		if start[cu+1] == 0 {
			return nil, fmt.Errorf("graph: ContractPar assignment never maps to coarse vertex %d", cu)
		}
		start[cu+1] += start[cu]
	}
	for v := 0; v < n; v++ {
		cu := assign[v]
		members[start[cu]+fill[cu]] = int32(v)
		fill[cu]++
	}

	// Coarse weights: w[cu] sums cu's members in ascending fine id — the
	// identical per-accumulator floating-point order as the historical
	// ascending-v sweep, so the parallel fan-out below is bit-exact.
	w := make([]float64, coarseN) // escapes into the coarse graph; not pooled
	sumWeights := func(lo, hi int) {
		for cu := lo; cu < hi; cu++ {
			s := 0.0
			for _, v := range members[start[cu]:start[cu+1]] {
				s += g.Weight[v]
			}
			w[cu] = s
		}
	}

	// Coarse edges by a stamped neighbor scan: visiting coarse vertices in
	// ascending id and emitting only toward larger ids counts every
	// crossing fine edge exactly once (from its smaller coarse endpoint),
	// deduplicated through the per-sweep slot table. The edge list comes
	// out sorted by (u, v), and the emission order is a pure function of
	// the input, so contraction is deterministic.
	// countEdges is the sizing prepass: the same stamped dedup walk as the
	// fill sweep (under private count-pass marks) with no emission, so the
	// edge arrays are allocated once at their exact final length and the
	// fill sweep never pays append growth or a concatenation copy — on
	// multi-megavertex hierarchies those repeated growslice copies used to
	// dominate contraction.
	countEdges := func(q *quotientScratch, lo, hi int) int {
		total := 0
		for cu := int32(lo); int(cu) < hi; cu++ {
			for _, v := range members[start[cu]:start[cu+1]] {
				for _, e := range g.IncidentEdges(v) {
					co := assign[g.Other(e, v)]
					if co <= cu {
						continue
					}
					if !q.seenCoarseCount(co, cu) {
						total++
					}
				}
			}
		}
		return total
	}
	// fillEdges emits the [lo, hi) range's coarse edges into the provided
	// exact-length windows of the final arrays (disjoint per chunk).
	fillEdges := func(q *quotientScratch, us, vs []int32, cs []float64, lo, hi int) {
		slot := q.slot
		k := 0
		for cu := int32(lo); int(cu) < hi; cu++ {
			for _, v := range members[start[cu]:start[cu+1]] {
				for _, e := range g.IncidentEdges(v) {
					co := assign[g.Other(e, v)]
					if co <= cu {
						continue // internal, or counted from co's sweep
					}
					if !q.seenCoarse(co, cu) {
						slot[co] = int32(k)
						us[k], vs[k], cs[k] = cu, co, 0
						k++
					}
					cs[slot[co]] += g.Cost[e]
				}
			}
		}
	}

	var us, vs []int32
	var cs []float64
	if par > 1 && g.M() >= contractParCutoff && coarseN > contractChunk {
		nChunks := (coarseN + contractChunk - 1) / contractChunk
		// Two barriers: every chunk counts (and sums weights), a sequential
		// prefix pass turns counts into offsets, then every chunk fills its
		// disjoint window of the final arrays (DESIGN.md §14, merge form 1) —
		// the emission lands exactly where the sequential sweep would put it.
		runPhase := func(phase func(q *quotientScratch, i, lo, hi int)) {
			var next int64
			work := func(q *quotientScratch) {
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= nChunks {
						return
					}
					lo := i * contractChunk
					hi := lo + contractChunk
					if hi > coarseN {
						hi = coarseN
					}
					phase(q, i, lo, hi)
				}
			}
			workers := par
			if workers > nChunks {
				workers = nChunks
			}
			var wg sync.WaitGroup
			for w := 1; w < workers; w++ {
				wg.Add(1)
				//repro:nondeterministic-ok phase workers write disjoint chunk windows (counts, then offset ranges of the final arrays) and the caller joins before reading — DESIGN.md §14
				go func() {
					defer wg.Done()
					q := acquireQuotient(coarseN, 0)
					defer releaseQuotient(q)
					work(q)
				}()
			}
			work(qs)
			wg.Wait()
		}
		counts := make([]int, nChunks+1)
		runPhase(func(q *quotientScratch, i, lo, hi int) {
			sumWeights(lo, hi)
			counts[i+1] = countEdges(q, lo, hi)
		})
		for i := 0; i < nChunks; i++ {
			counts[i+1] += counts[i]
		}
		total := counts[nChunks]
		us = make([]int32, total)
		vs = make([]int32, total)
		cs = make([]float64, total)
		runPhase(func(q *quotientScratch, i, lo, hi int) {
			fillEdges(q, us[counts[i]:counts[i+1]], vs[counts[i]:counts[i+1]], cs[counts[i]:counts[i+1]], lo, hi)
		})
	} else {
		sumWeights(0, coarseN)
		total := countEdges(qs, 0, coarseN)
		us = make([]int32, total)
		vs = make([]int32, total)
		cs = make([]float64, total)
		fillEdges(qs, us, vs, cs, 0, coarseN)
	}

	// Assemble directly: endpoints are ordered and deduplicated by
	// construction, so the Builder's O(M) validation map would be pure
	// overhead on the coarsening hot path.
	coarse := &Graph{
		numV:   coarseN,
		edgeU:  us,
		edgeV:  vs,
		Cost:   cs,
		Weight: w,
	}
	coarse.buildAdjacency()
	return &Contraction{Coarse: coarse, Map: append([]int32(nil), assign...)}, nil
}

// Project lifts a coarse coloring to the fine graph: every fine vertex
// takes its coarse vertex's color. Balance is preserved exactly (coarse
// class weights are sums of fine ones) and the fine boundary cost of the
// lifted coloring equals the coarse boundary cost (crossing fine edges are
// exactly the fine edges under crossing coarse edges, with summed costs).
func (c *Contraction) Project(coarse []int32) []int32 {
	if len(coarse) != c.Coarse.N() {
		panic(fmt.Sprintf("graph: Project coloring length %d != coarse N %d", len(coarse), c.Coarse.N()))
	}
	out := make([]int32, len(c.Map))
	for v, cu := range c.Map {
		out[v] = coarse[cu]
	}
	return out
}
