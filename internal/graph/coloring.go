package graph

import (
	"fmt"
	"math"
)

// This file provides the coloring vocabulary of Section 2: k-colorings
// χ : V → [k], the strict-balance condition of Definition 1, and summary
// statistics ‖∂χ⁻¹‖∞, ‖∂χ⁻¹‖avg, ‖wχ⁻¹‖∞.

// Uncolored marks a vertex not yet assigned a color class.
const Uncolored int32 = -1

// NewColoring returns an all-Uncolored coloring for n vertices.
func NewColoring(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = Uncolored
	}
	return c
}

// ColoringStats summarizes a k-coloring of a weighted, costed graph.
type ColoringStats struct {
	K int

	// ClassWeight[i] = w(χ⁻¹(i)).
	ClassWeight []float64
	// ClassBoundary[i] = ∂(χ⁻¹(i)) = c(δ(χ⁻¹(i))).
	ClassBoundary []float64

	AvgWeight   float64 // ‖w‖₁ / k
	MaxWeight   float64 // ‖wχ⁻¹‖∞
	MinWeight   float64 // min_i w(χ⁻¹(i))
	MaxBoundary float64 // ‖∂χ⁻¹‖∞
	AvgBoundary float64 // ‖∂χ⁻¹‖avg = ‖∂χ⁻¹‖₁ / k

	// MaxWeightDeviation = max_i |w(χ⁻¹(i)) − ‖w‖₁/k|.
	MaxWeightDeviation float64
	// StrictBound = (1 − 1/k)·‖w‖∞, the right side of Definition 1.
	StrictBound float64
	// StrictlyBalanced reports whether inequality (1) of Definition 1 holds
	// (with a tiny relative tolerance for floating-point accumulation).
	StrictlyBalanced bool
}

// Stats computes summary statistics for a coloring. All vertices must be
// colored with values in [0, k).
func Stats(g *Graph, coloring []int32, k int) ColoringStats {
	st := weightStats(g, coloring, k)
	st.ClassBoundary = g.ClassBoundaryCosts(coloring, k)
	for _, b := range st.ClassBoundary {
		if b > st.MaxBoundary {
			st.MaxBoundary = b
		}
		st.AvgBoundary += b
	}
	st.AvgBoundary /= float64(k)
	return st
}

// weightStats fills the weight half of ColoringStats: every field but
// ClassBoundary, MaxBoundary and AvgBoundary. It reads the coloring and
// the weights once, and no edge.
func weightStats(g *Graph, coloring []int32, k int) ColoringStats {
	st := ColoringStats{K: k}
	st.ClassWeight = g.ClassWeights(coloring, k)
	st.AvgWeight = g.TotalWeight() / float64(k)
	st.MinWeight = math.Inf(1)
	for _, w := range st.ClassWeight {
		if w > st.MaxWeight {
			st.MaxWeight = w
		}
		if w < st.MinWeight {
			st.MinWeight = w
		}
		if d := math.Abs(w - st.AvgWeight); d > st.MaxWeightDeviation {
			st.MaxWeightDeviation = d
		}
	}
	st.StrictBound = (1 - 1/float64(k)) * g.MaxWeight()
	tol := 1e-9 * (st.AvgWeight + g.MaxWeight() + 1)
	st.StrictlyBalanced = st.MaxWeightDeviation <= st.StrictBound+tol
	return st
}

// CheckColoring verifies that every vertex is colored with a value in
// [0, k) and returns an error describing the first violation.
func CheckColoring(coloring []int32, k int) error {
	for v, c := range coloring {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("graph: vertex %d has color %d, want [0,%d)", v, c, k)
		}
	}
	return nil
}

// IsStrictlyBalanced reports whether the coloring satisfies Definition 1:
// max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞ (with float tolerance).
func IsStrictlyBalanced(g *Graph, coloring []int32, k int) bool {
	return weightStats(g, coloring, k).StrictlyBalanced
}

// IsAlmostStrictlyBalanced reports the Section 4 relaxation: every class
// weight within 2·‖w‖∞ of the average (with float tolerance).
func IsAlmostStrictlyBalanced(g *Graph, coloring []int32, k int) bool {
	st := weightStats(g, coloring, k)
	tol := 1e-9 * (st.AvgWeight + g.MaxWeight() + 1)
	return st.MaxWeightDeviation <= 2*g.MaxWeight()+tol
}

// ClassList returns the vertex lists of each color class. Uncolored
// vertices are skipped.
func ClassList(coloring []int32, k int) [][]int32 {
	out := make([][]int32, k)
	for v, c := range coloring {
		if c >= 0 {
			out[c] = append(out[c], int32(v))
		}
	}
	return out
}
