// Package baseline implements the comparison partitioners discussed in the
// paper's introduction and related work:
//
//   - Greedy: the greedy bin-packing scheduler. It achieves exactly the
//     strict-balance guarantee of Definition 1 — the paper notes its weight
//     guarantee is the benchmark — but, being oblivious to edges, "will in
//     general create huge boundary costs".
//   - RecursiveBisection: Simon–Teng [8] style recursive bisection driven
//     by a splitting oracle; controls the *total* (hence average) edge cut
//     but not the maximum boundary cost, and its balance is loose.
//   - KSTBisection: Kiwi–Spielman–Teng [4] style recursive bisection whose
//     separators divide evenly with respect to both the vertex weights and
//     the splitting-cost measure, the approach the paper generalizes.
package baseline

import (
	"context"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/splitter"
)

// Greedy assigns vertices in order of descending weight to the currently
// lightest class. The result is always strictly balanced (Definition 1);
// boundary costs are uncontrolled.
func Greedy(g *graph.Graph, k int) []int32 {
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := g.Weight[order[a]], g.Weight[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	chi := make([]int32, g.N())
	load := make([]float64, k)
	for _, v := range order {
		best := 0
		for i := 1; i < k; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		chi[v] = int32(best)
		load[best] += g.Weight[v]
	}
	return chi
}

// RecursiveBisection partitions V into k classes by recursively splitting
// the vertex set proportionally to the class counts (Simon–Teng [8]). The
// splitting oracle controls each cut's cost; total removed cost is
// O(k^{1−1/p}·‖c‖_p·σ_p), so the *average* boundary is O(σ_p·k^{−1/p}·‖c‖_p),
// but individual classes may be both overweight and boundary-heavy.
func RecursiveBisection(g *graph.Graph, sp splitter.Splitter, k int) []int32 {
	chi := graph.NewColoring(g.N())
	W := graph.AllVertices(g)
	rbAssign(g, sp, g.Weight, W, 0, k, chi)
	return chi
}

func rbAssign(g *graph.Graph, sp splitter.Splitter, w []float64, W []int32, base, k int, chi []int32) {
	if k <= 1 || len(W) == 0 {
		for _, v := range W {
			chi[v] = int32(base)
		}
		return
	}
	k1 := k / 2
	total := 0.0
	for _, v := range W {
		total += w[v]
	}
	U := sp.Split(context.Background(), W, w, total*float64(k1)/float64(k))
	rest := subtract(W, U)
	rbAssign(g, sp, w, U, base, k1, chi)
	rbAssign(g, sp, w, rest, base+k1, k-k1, chi)
}

// KSTBisection is recursive bisection whose every cut is simultaneously
// balanced in the vertex weights and the p-splitting-cost measure π, the
// two-weight case Kiwi, Spielman and Teng handle ([4]; cf. Section 1,
// "Arbitrary edge costs"). It alternates which measure the splitter targets
// while steering the weight proportion, approximating a two-measure
// separator.
func KSTBisection(g *graph.Graph, sp splitter.Splitter, k int, p float64) []int32 {
	if p <= 1 || math.IsNaN(p) {
		p = 2
	}
	pi := measure.SplittingCostPar(g, p, 1, 1)
	chi := graph.NewColoring(g.N())
	kstAssign(g, sp, g.Weight, pi, graph.AllVertices(g), 0, k, chi)
	return chi
}

func kstAssign(g *graph.Graph, sp splitter.Splitter, w, pi []float64, W []int32, base, k int, chi []int32) {
	if k <= 1 || len(W) == 0 {
		for _, v := range W {
			chi[v] = int32(base)
		}
		return
	}
	k1 := k / 2
	frac := float64(k1) / float64(k)
	totalW, totalPi := 0.0, 0.0
	for _, v := range W {
		totalW += w[v]
		totalPi += pi[v]
	}
	// Split by weight first; if the π share of the cut side is badly off,
	// re-split by a blend of the two measures (the two-weight separator).
	U := sp.Split(context.Background(), W, w, totalW*frac)
	piU := 0.0
	for _, v := range U {
		piU += pi[v]
	}
	if totalPi > 0 && (piU > 1.5*frac*totalPi || piU < 0.5*frac*totalPi) {
		blend := make([]float64, g.N())
		for _, v := range W {
			nw, npi := 0.0, 0.0
			if totalW > 0 {
				nw = w[v] / totalW
			}
			if totalPi > 0 {
				npi = pi[v] / totalPi
			}
			blend[v] = nw + npi
		}
		U = sp.Split(context.Background(), W, blend, 2*frac)
	}
	rest := subtract(W, U)
	kstAssign(g, sp, w, pi, U, base, k1, chi)
	kstAssign(g, sp, w, pi, rest, base+k1, k-k1, chi)
}

func subtract(X, U []int32) []int32 {
	in := make(map[int32]bool, len(U))
	for _, v := range U {
		in[v] = true
	}
	out := make([]int32, 0, len(X)-len(U))
	for _, v := range X {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}
