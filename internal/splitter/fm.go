package splitter

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Refined wraps an inner splitter with Fiduccia–Mattheyses-style local
// refinement: single-vertex moves across the cut of G[W] that strictly
// decrease boundary cost while preserving the Definition 3 weight window.
// Refinement never invalidates the oracle contract — it only improves the
// constant in front of ‖c|W‖_p in practice.
//
// Refined is safe for concurrent Split calls (the Splitter concurrency
// contract): each call acquires its own pooled workspace, the struct
// fields are read-only after construction, and the inner splitter must
// itself honor the contract (all in-tree ones do).
type Refined struct {
	G     *graph.Graph
	Inner Splitter
	// Passes bounds the number of full improvement passes (default 4).
	Passes int
	// Par bounds the worker goroutines of the initial gain fill, the one
	// O(|W|·deg) sweep of a call; 0 or 1 fills sequentially, as does the
	// fill around a small U (fmSmallU) at any Par. The pieces
	// are bit-identical at every setting: each worker writes the gains of
	// its own range of W, and the moves that follow are sequential
	// (DESIGN.md §14). The core pipeline sets this to the run's resolved
	// Parallelism when it mints default oracles.
	Par int
}

// NewRefined wraps inner with FM refinement on graph g.
func NewRefined(g *graph.Graph, inner Splitter) *Refined {
	return &Refined{G: g, Inner: inner, Passes: 4}
}

// Split implements Splitter. A done ctx short-circuits to nil before the
// inner oracle runs, and skips the refinement passes if cancellation lands
// between the inner call and the FM loop.
func (r *Refined) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	U := r.Inner.Split(ctx, W, w, target)
	if U == nil || ctx.Err() != nil {
		return nil
	}
	passes := r.Passes
	if passes <= 0 {
		passes = 4
	}
	return refine(ctx, r.G, W, U, w, target, passes, r.Par)
}

// fmChunk is the granularity of the parallel initial gain fill; chunks
// are contiguous ranges of W.
const fmChunk = 4096

// fmParCutoff is the minimum |W| whose initial gain fill fans out. A fill
// on its own already gains from two workers at 2^12 vertices in 1024-
// vertex chunks (BenchmarkRefineFill, EXPERIMENTS.md), but a direct run
// measured no faster with that cutoff and chunk: fills that small mostly
// run while the other pool workers are busy.
const fmParCutoff = 1 << 14

// fmFloor is the least gain a move must strictly exceed to be admissible.
const fmFloor = 1e-12

// fmSmallU sets when the initial gain fill covers only U and its
// neighbours in W: when fmSmallU·|U| < |W| (fillGainsNearU). Measured with
// BenchmarkRefineFillSmallU (EXPERIMENTS.md).
const fmSmallU = 4

// refine greedily applies improving moves. A move flips one vertex of W
// between U and W\U. It is admissible if it strictly decreases the cut cost
// of U inside G[W] and keeps |w(U) − target| ≤ ‖w|W‖∞/2. Each step takes
// the admissible unmoved vertex of largest gain, the earliest in W on a
// tie. Gains are computed once per call and cached: a flip changes only
// the gains of the flipped vertex and its neighbours in W, so only those
// are recomputed, with the same loop, and every cached gain is bit-for-bit
// what a fresh evaluation would return. The next move is chosen from a
// candidate list of the positions whose gain clears the floor; entries
// that fell to it, or were moved, are dropped while the list is scanned.
// The move loop re-checks ctx per move, so the pipeline's cancellation
// latency stays bounded by one selection even on instances where a full
// refinement pass is slow.
func refine(ctx context.Context, g *graph.Graph, W, U []int32, w []float64, target float64, passes, par int) []int32 {
	fs := acquireFM(g.N(), len(W))
	defer releaseFM(fs)
	for i, v := range W {
		fs.markW(v, i)
	}
	total, maxw := 0.0, 0.0
	for _, v := range W {
		total += w[v]
		if w[v] > maxw {
			maxw = w[v]
		}
	}
	if target < 0 {
		target = 0
	}
	if target > total {
		target = total
	}
	weightU := 0.0
	for _, v := range U {
		fs.setU(v, true)
		weightU += w[v]
	}
	window := maxw/2 + 1e-12*(total+1)

	// gain(v): cut-cost decrease from flipping v (within G[W]). Reads only
	// the membership stamps, which are frozen during the initial fill, so
	// concurrent gain evaluations are race-free.
	gain := func(v int32) float64 {
		sameSide, otherSide := 0.0, 0.0
		vu := fs.inU(v)
		for _, e := range g.IncidentEdges(v) {
			o := g.Other(e, v)
			if !fs.inW(o) {
				continue
			}
			if fs.inU(o) == vu {
				sameSide += g.Cost[e]
			} else {
				otherSide += g.Cost[e]
			}
		}
		return otherSide - sameSide
	}
	feasible := func(v int32) bool {
		nw := weightU
		if fs.inU(v) {
			nw -= w[v]
		} else {
			nw += w[v]
		}
		d := nw - target
		if d < 0 {
			d = -d
		}
		return d <= window
	}
	gains, flags := fs.gain, fs.flags
	if fmSmallU*len(U) < len(W) {
		fillGainsNearU(g, fs, U, gains, gain)
	} else {
		fillGains(W, gains, gain, par)
	}

	for pass := 0; pass < passes; pass++ {
		improved := false
		cands := fs.cands[:0]
		for i := range W {
			flags[i] = 0
			if gains[i] > fmFloor {
				flags[i] = slotOnList
				cands = append(cands, int32(i))
			}
		}
		for {
			if ctx.Err() != nil {
				return nil
			}
			// Select the feasible candidate of largest gain, the earliest
			// position on a tie — the winner of an in-order scan of W under
			// a strictly-greater rule — and compact the list as it goes.
			best, bestGain := int32(-1), fmFloor
			kept := 0
			for _, i := range cands {
				gv := gains[i]
				if flags[i]&slotMoved != 0 || !(gv > fmFloor) {
					flags[i] &^= slotOnList
					continue
				}
				cands[kept] = i
				kept++
				if (gv > bestGain || gv == bestGain && i < best) && feasible(W[i]) {
					best, bestGain = i, gv
				}
			}
			cands = cands[:kept]
			if best < 0 {
				break
			}
			v := W[best]
			if fs.inU(v) {
				weightU -= w[v]
			} else {
				weightU += w[v]
			}
			fs.setU(v, !fs.inU(v))
			flags[best] |= slotMoved
			gains[best] = gain(v)
			for _, e := range g.IncidentEdges(v) {
				o := g.Other(e, v)
				if !fs.inW(o) {
					continue
				}
				i := fs.pos[o]
				gains[i] = gain(o)
				if gains[i] > fmFloor && flags[i]&(slotMoved|slotOnList) == 0 {
					flags[i] |= slotOnList
					cands = append(cands, i)
				}
			}
			improved = true
		}
		if !improved {
			break
		}
	}

	out := make([]int32, 0, len(U))
	for _, v := range W {
		if fs.inU(v) {
			out = append(out, v)
		}
	}
	return out
}

// fillGainsNearU is the initial gain fill of a U that is small against W.
// It evaluates gain only at the vertices of U and their neighbours in W,
// and stores 0 at every other position. There the true gain is the
// negated cost of the vertex's edges in G[W], so ≤ 0 ≤ fmFloor (costs are
// never negative), and it stays so until the vertex or a neighbour flips,
// which recomputes it. A stored 0 and the true gain thus both keep the
// vertex off every candidate list, and the moves are those of a full
// fill. Vertices of U outside W, which the oracle contract rules out, get
// no gain, as in a full fill.
func fillGainsNearU(g *graph.Graph, fs *fmScratch, U []int32, gains []float64, gain func(int32) float64) {
	clear(gains)
	for _, u := range U {
		if !fs.inW(u) {
			continue
		}
		gains[fs.pos[u]] = gain(u)
		for _, e := range g.IncidentEdges(u) {
			if o := g.Other(e, u); fs.inW(o) && !fs.inU(o) {
				gains[fs.pos[o]] = gain(o)
			}
		}
	}
}

// fillGains writes gain(W[i]) into gains[i] for every position of W: the
// only O(|W|·deg) sweep of a refine call. Above fmParCutoff and with
// par > 1 it fans out over fmChunk-sized ranges claimed off an atomic
// counter; each worker writes only its own range, so the result is the
// sequential fill's at every par.
func fillGains(W []int32, gains []float64, gain func(int32) float64, par int) {
	if par <= 1 || len(W) < fmParCutoff {
		for i, v := range W {
			gains[i] = gain(v)
		}
		return
	}
	nChunks := (len(W) + fmChunk - 1) / fmChunk
	var next atomic.Int64
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= nChunks {
				return
			}
			lo := c * fmChunk
			hi := min(lo+fmChunk, len(W))
			for i, v := range W[lo:hi] {
				gains[lo+i] = gain(v)
			}
		}
	}
	workers := min(par, nChunks)
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		//repro:nondeterministic-ok gain-fill workers write disjoint ranges of gains; the caller joins before reading — DESIGN.md §14
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
