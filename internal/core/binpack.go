package core

import "sort"

// This file implements the two bin-packing procedures of Appendix A.2:
// BinPack1 (Lemma 15, the conquer phase of the shrink-and-conquer
// algorithm) and BinPack2 (Proposition 12, almost-strict → strict), plus
// the guaranteed-strict chunked-greedy repacking used as a backstop.
//
// Both procedures share the same shape: cut chunks of weight ≤ ‖w‖∞ off
// overweight classes (Claim 4), then redistribute the chunks greedily onto
// the lightest classes. The greedy phase inherits the classic bin-packing
// guarantee — every class ends within (1 − 1/k)·(max chunk weight) of the
// average — which is exactly the strict-balance bound of Definition 1.

// chunk is a buffered piece with its cached weight.
type chunk struct {
	verts  []int32
	weight float64
}

// cutDownClasses removes chunks from every class whose adjusted weight
// (class weight + offset[i]) exceeds limit, collecting them in a buffer.
// offsets may be nil. Classes are modified in place; returns the buffer.
//
// The per-class cut-down loops are independent (each touches only
// classes[i] and its own buffer slot), so they fan out across the ctx
// worker pool. The returned buffer concatenates the per-class buffers in
// class order — exactly the sequential emission order — so the downstream
// greedy assignment sees the same input regardless of Parallelism.
func (c *ctx) cutDownClasses(classes [][]int32, w []float64, offsets []float64, limit, maxw float64) []chunk {
	tol := 1e-9 * (limit + maxw + 1)
	buffers := make([][]chunk, len(classes))
	c.parRange(len(classes), func(i int) {
		cw := sumOver(w, classes[i])
		off := 0.0
		if offsets != nil {
			off = offsets[i]
		}
		guard := 0
		cap := len(classes[i]) + 8
		for cw+off > limit+tol && len(classes[i]) > 0 && guard < cap {
			if c.interrupted() {
				break
			}
			guard++
			X := c.extractChunk(classes[i], w, maxw)
			if len(X) == 0 {
				break
			}
			xw := sumOver(w, X)
			classes[i] = removeInPlace(classes[i], X)
			cw -= xw
			buffers[i] = append(buffers[i], chunk{X, xw})
			if xw <= 0 && len(classes[i]) == 0 {
				break
			}
		}
	})
	var buffer []chunk
	for _, b := range buffers {
		buffer = append(buffer, b...)
	}
	return buffer
}

// greedyAssign distributes the buffered chunks, heaviest first, each onto
// the class with the smallest adjusted weight. This is the paper's greedy
// bin-packing conquer step; with all chunks ≤ maxw it guarantees
// max_i |adjusted(i) − avg| ≤ (1 − 1/k)·maxw at the end.
func greedyAssign(classes [][]int32, w []float64, offsets []float64, buffer []chunk) {
	k := len(classes)
	cw := make([]float64, k)
	for i := range classes {
		cw[i] = sumOver(w, classes[i])
		if offsets != nil {
			cw[i] += offsets[i]
		}
	}
	sort.Slice(buffer, func(a, b int) bool { return buffer[a].weight > buffer[b].weight })
	for _, ch := range buffer {
		best := 0
		for i := 1; i < k; i++ {
			if cw[i] < cw[best] {
				best = i
			}
		}
		classes[best] = append(classes[best], ch.verts...)
		cw[best] += ch.weight
	}
}

// binPack1 is Lemma 15: given classes of χ₀ (on W₀) and the fixed class
// weights w1 of the already almost-strict χ̂₁ (on W₁), transform the χ₀
// classes so the direct sum is almost strictly balanced: every
// w(class₀(i)) + w1(i) within 2·‖w‖∞ of avgAll. Classes are modified and
// returned.
func (c *ctx) binPack1(classes [][]int32, w []float64, w1 []float64, avgAll, maxw float64) [][]int32 {
	buffer := c.cutDownClasses(classes, w, w1, avgAll, maxw)
	greedyAssign(classes, w, w1, buffer)
	return classes
}

// binPack2 is Proposition 12: make a complete k-coloring strictly balanced
// (Definition 1) while adding only O(‖∂χ⁻¹‖∞ + ‖πχ⁻¹‖^{1/p}∞ + Δ_c)
// boundary cost. The cut-down/greedy combination achieves strictness
// outright (see the package comment); the result is verified by the caller.
func (c *ctx) binPack2(chi []int32, k int) []int32 {
	w := c.g.Weight
	maxw := maxOf(w)
	if maxw <= 0 || k <= 1 {
		return append([]int32(nil), chi...)
	}
	avg := totalOf(w) / float64(k)
	classes := classLists(chi, k)
	buffer := c.cutDownClasses(classes, w, nil, avg, maxw)
	greedyAssign(classes, w, nil, buffer)
	return classesToColoring(classes, c.g.N())
}

// chunkedGreedy is the guaranteed-strict backstop: break *every* class into
// chunks of weight ≤ ‖w‖∞ (heavy singletons or splitting-set pieces, so
// locality is preserved), then greedily repack all chunks from scratch.
// Greedy from empty bins is always strictly balanced per Definition 1.
func (c *ctx) chunkedGreedy(chi []int32, k int) []int32 {
	w := c.g.Weight
	maxw := maxOf(w)
	classes := classLists(chi, k)
	if maxw <= 0 || k <= 1 {
		return append([]int32(nil), chi...)
	}
	var buffer []chunk
	for i := range classes {
		U := classes[i]
		guard := 0
		for len(U) > 0 && guard < len(chi)+8 {
			if c.interrupted() {
				// Cancelled: stop chunking. The remaining vertices stay
				// unassigned, which the entry point's final ctx check turns
				// into ctx.Err() before CheckColoring could ever see it.
				classes[i] = U
				return classesToColoring(classes, c.g.N())
			}
			guard++
			X := c.extractChunk(U, w, maxw)
			if len(X) == 0 {
				X = []int32{U[0]}
			}
			buffer = append(buffer, chunk{X, sumOver(w, X)})
			U = removeInPlace(U, X)
		}
		classes[i] = nil
	}
	greedyAssign(classes, w, nil, buffer)
	return classesToColoring(classes, c.g.N())
}

// classesToColoring converts class vertex lists into a coloring vector.
func classesToColoring(classes [][]int32, n int) []int32 {
	chi := make([]int32, n)
	for i := range chi {
		chi[i] = -1
	}
	for i, class := range classes {
		for _, v := range class {
			chi[v] = int32(i)
		}
	}
	return chi
}
