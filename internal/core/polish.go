package core

// This file implements a boundary polish pass run after Proposition 12.
// It is an engineering extension over the paper (documented in DESIGN.md):
// greedy single-vertex moves and pairwise swaps across class borders that
// strictly decrease the maximum boundary cost while provably preserving
// Definition 1 strict balance. Every change is feasibility-checked against
// the strict-balance window, so the Theorem 4 guarantee is untouched — the
// pass only shrinks the constant (quantified in E10). Swaps matter in the
// uniform-weight regime, where the window (1 − 1/k)·‖w‖∞ < ‖w‖∞ forbids
// any single-vertex move but allows weight-neutral exchanges.

// polishState carries the incremental bookkeeping of the pass.
type polishState struct {
	c   *ctx
	k   int
	out []int32
	cw  []float64 // class weights
	cb  []float64 // class boundary costs

	// active, when non-nil, restricts the sweep to a vertex subset (the
	// localized-refine path): only active vertices are considered as move
	// or swap candidates. Class weights and boundaries stay global, so
	// feasibility and improvement are judged against the whole coloring.
	active     []bool
	activeList []int32

	avg, window, tol float64
}

// polish runs up to rounds improvement sweeps over chi. dirty selects the
// candidates: nil sweeps the whole graph; otherwise only the closed
// neighborhood of those vertices (the changed region of a topology
// mutation plus its border, where new boundary costs can appear) is
// swept, so an empty set sweeps nothing. Balance feasibility stays global
// either way.
func (c *ctx) polish(chi []int32, k int, rounds int, dirty []int32) []int32 {
	if k <= 1 || rounds <= 0 {
		return append([]int32(nil), chi...)
	}
	ps := c.newPolishState(chi, k, dirty)
	for round := 0; round < rounds; round++ {
		if c.interrupted() {
			break
		}
		improved := ps.sweep(ps.borders())
		c.polishRound(round, improved)
		if !improved {
			break
		}
	}
	return ps.out
}

// newPolishState sets up a pass over a copy of chi. The global path (nil
// dirty) leaves cb zero: every round rebuilds it exactly in its border
// scan. The localized path computes it once here, and from then on it
// changes only through committed moves.
func (c *ctx) newPolishState(chi []int32, k int, dirty []int32) *polishState {
	g := c.g
	ps := &polishState{
		c:   c,
		k:   k,
		out: append([]int32(nil), chi...),
		cw:  g.ClassWeights(chi, k),
	}
	if dirty == nil {
		ps.cb = make([]float64, k)
	} else {
		ps.cb = g.ClassBoundaryCosts(chi, k)
		ps.active = make([]bool, g.N())
		for _, v := range dirty {
			ps.active[v] = true
			for _, e := range g.IncidentEdges(v) {
				ps.active[g.Other(e, v)] = true
			}
		}
		for v, a := range ps.active {
			if a {
				ps.activeList = append(ps.activeList, int32(v))
			}
		}
	}
	total := totalOf(g.Weight)
	maxw := maxOf(g.Weight)
	ps.avg = total / float64(k)
	ps.window = (1 - 1/float64(k)) * maxw
	ps.tol = 1e-9 * (ps.avg + maxw + 1)
	return ps
}

// moveDelta returns the exact boundary-cost changes (dFrom for v's current
// class, dTo for class `to`) of moving v, under the current coloring with
// one exception: vertex joined, unless negative, counts as a member of v's
// class. That is the coloring a swap reaches after its first move, so a
// swap is scored without applying it.
// Classes other than from/to are unaffected: their cut edges to v stay cut.
func (ps *polishState) moveDelta(v, to, joined int32) (dFrom, dTo float64) {
	g := ps.c.g
	from := ps.out[v]
	for _, e := range g.IncidentEdges(v) {
		o := g.Other(e, v)
		cls := ps.out[o]
		if o == joined {
			cls = from
		}
		cost := g.Cost[e]
		switch cls {
		case from:
			dFrom += cost // becomes cut
			dTo += cost
		case to:
			dFrom -= cost // becomes internal
			dTo -= cost
		default:
			dFrom -= cost // still cut, charged to `to` now
			dTo += cost
		}
	}
	return dFrom, dTo
}

// applyMove commits the move of v to class `to`.
func (ps *polishState) applyMove(v, to int32) {
	from := ps.out[v]
	dFrom, dTo := ps.moveDelta(v, to, -1)
	ps.cb[from] += dFrom
	ps.cb[to] += dTo
	w := ps.c.g.Weight[v]
	ps.cw[from] -= w
	ps.cw[to] += w
	ps.out[v] = to
}

// weightOK reports whether a class weight x is inside the strict window.
func (ps *polishState) weightOK(x float64) bool {
	d := x - ps.avg
	if d < 0 {
		d = -d
	}
	return d <= ps.window+ps.tol
}

// borderChunk is the edge granularity of the parallel crossing-edge scan;
// borderParCutoff is the minimum edge count for which the fan-out pays
// (measured in EXPERIMENTS.md, "Polish border-scan cutoff").
const (
	borderChunk     = 1 << 15
	borderParCutoff = 1 << 17
)

// borders lists the border vertices of each class (those with at least
// one cut edge). The localized path scans only the active vertices'
// incidence lists and admits only active border vertices as candidates.
// The global path also rebuilds cb from the crossing edges it visits: it
// adds them in ascending edge id, as ClassBoundaryCosts does, so every
// round starts from class boundaries bit-identical to a fresh
// ClassBoundaryCosts, at any parallelism.
func (ps *polishState) borders() [][]int32 {
	g := ps.c.g
	border := make([][]int32, ps.k)
	isBorder := make([]bool, g.N())
	if ps.active != nil {
		for _, x := range ps.activeList {
			for _, e := range g.IncidentEdges(x) {
				if ps.out[g.Other(e, x)] != ps.out[x] {
					isBorder[x] = true
					border[ps.out[x]] = append(border[ps.out[x]], x)
					break
				}
			}
		}
		return border
	}
	clear(ps.cb)
	// cross charges crossing edge e to both endpoint classes and lists each
	// endpoint, once, as a border vertex of its class.
	cross := func(e int32) {
		u, v := g.Endpoints(e)
		ps.cb[ps.out[u]] += g.Cost[e]
		ps.cb[ps.out[v]] += g.Cost[e]
		for _, x := range [2]int32{u, v} {
			if !isBorder[x] {
				isBorder[x] = true
				border[ps.out[x]] = append(border[ps.out[x]], x)
			}
		}
	}
	// The O(M) crossing-edge scan dominates a round on large graphs, so it
	// fans across the pool: workers collect each chunk's crossing edges (a
	// pure read of the frozen pre-round coloring), and the in-order merge
	// below visits them in ascending edge id — the identical first-seen
	// discovery order and summation order the sequential scan produces, so
	// the border lists and cb are bit-identical at any parallelism.
	m := g.M()
	if ps.c.sem != nil && m >= borderParCutoff {
		nChunks := (m + borderChunk - 1) / borderChunk
		crossing := make([][]int32, nChunks)
		ps.c.parRange(nChunks, func(i int) {
			lo := i * borderChunk
			hi := lo + borderChunk
			if hi > m {
				hi = m
			}
			var out []int32
			for e := lo; e < hi; e++ {
				u, v := g.Endpoints(int32(e))
				if ps.out[u] != ps.out[v] {
					out = append(out, int32(e))
				}
			}
			crossing[i] = out
		})
		for _, chunk := range crossing {
			for _, e := range chunk {
				cross(e)
			}
		}
		return border
	}
	for e := int32(0); e < int32(m); e++ {
		u, v := g.Endpoints(e)
		if ps.out[u] != ps.out[v] {
			cross(e)
		}
	}
	return border
}

// sweep performs one round over the border lists of borders; it returns
// whether anything improved. Every decision reads cb, so the round's
// hotspot maxB is taken after borders has rebuilt it.
func (ps *polishState) sweep(border [][]int32) bool {
	g := ps.c.g
	k := ps.k
	maxB := maxOf(ps.cb)
	if maxB <= 0 {
		return false
	}
	improved := false
	// Receiver-selection scratch, reused across border vertices: perClass
	// accumulates adjacency per neighboring class, touchedCls records which
	// entries to reset (only a vertex's few neighbor classes, not all k).
	perClass := make([]float64, k)
	inTouched := make([]bool, k)
	touchedCls := make([]int32, 0, 8)
	for donor := int32(0); donor < int32(k); donor++ {
		if ps.c.interrupted() {
			break // cancelled mid-sweep: the entry point discards the result
		}
		if ps.cb[donor] < 0.75*maxB {
			continue
		}
		for _, v := range border[donor] {
			if ps.out[v] != donor {
				continue // moved earlier this round
			}
			// Receiver: the neighboring class with the largest adjacency,
			// ties broken toward the lowest class id. (A map here would
			// break determinism: with unit costs ties are common, and map
			// iteration order would pick different receivers run to run.)
			for _, e := range g.IncidentEdges(v) {
				o := g.Other(e, v)
				if cls := ps.out[o]; cls != donor {
					if !inTouched[cls] {
						inTouched[cls] = true
						touchedCls = append(touchedCls, cls)
					}
					perClass[cls] += g.Cost[e]
				}
			}
			var best int32 = -1
			bestCost := 0.0
			for _, cls := range touchedCls {
				c := perClass[cls]
				if c > bestCost || (c == bestCost && best >= 0 && cls < best) {
					best, bestCost = cls, c
				}
			}
			for _, cls := range touchedCls {
				perClass[cls] = 0
				inTouched[cls] = false
			}
			touchedCls = touchedCls[:0]
			if best < 0 {
				continue
			}
			dDonor, dBest := ps.moveDelta(v, best, -1)
			if dDonor >= -1e-12 {
				continue
			}
			// Single move.
			if ps.weightOK(ps.cw[donor]-g.Weight[v]) &&
				ps.weightOK(ps.cw[best]+g.Weight[v]) &&
				ps.cb[best]+dBest < maxB-1e-12 {
				ps.applyMove(v, best)
				improved = true
				continue
			}
			// Swap: find a counterpart x in `best` on the mutual border.
			if ps.trySwap(v, best, dDonor, dBest, border[best], maxB) {
				improved = true
			}
		}
	}
	return improved
}

// trySwap attempts to exchange v (in the hot donor class) with a border
// vertex x of class `to`, committing only if the pairwise exchange keeps
// both weights in the strict window and strictly lowers
// max(∂donor, ∂to) without creating a new global hotspot. dvDonor and
// dvTo are v's move deltas. Candidates are scored without touching any
// state: x's deltas count v as already moved into `to`, and the pair's new
// boundaries are the sums the two moves would leave in cb, so the
// accepted swap commits exactly the values it was scored by.
func (ps *polishState) trySwap(v, to int32, dvDonor, dvTo float64, candidates []int32, maxB float64) bool {
	g := ps.c.g
	donor := ps.out[v]
	oldPair := max(ps.cb[donor], ps.cb[to])
	vDonor, vTo := ps.cb[donor]+dvDonor, ps.cb[to]+dvTo
	for _, x := range candidates {
		if ps.out[x] != to || x == v {
			continue
		}
		// Weight feasibility of the full exchange.
		dw := g.Weight[x] - g.Weight[v]
		if !ps.weightOK(ps.cw[donor]+dw) || !ps.weightOK(ps.cw[to]-dw) {
			continue
		}
		dxTo, dxDonor := ps.moveDelta(x, donor, v)
		newDonor, newTo := vDonor+dxDonor, vTo+dxTo
		// The maxB checks keep this rule sound on its own. While single
		// moves keep their receivers below maxB, every class stays at or
		// below it through a round, so oldPair ≤ maxB implies them.
		if max(newDonor, newTo) < oldPair-1e-12 && newDonor < maxB && newTo < maxB {
			ps.applyMove(v, to)
			ps.applyMove(x, donor)
			return true
		}
	}
	return false
}
