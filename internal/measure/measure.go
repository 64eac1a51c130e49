// Package measure provides vertex measures in the sense of Section 2 of
// Steurer (SPAA 2006): non-negative functions Φ : V → R+ extended to vertex
// sets by summation, together with the splitting-cost measure π of
// Definition 10 that drives the boundary-balancing machinery of
// Proposition 7.
package measure

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Measure is a dense vertex measure Φ indexed by vertex id.
type Measure []float64

// Sum returns Φ(U) = Σ_{u∈U} Φ(u).
func (m Measure) Sum(U []int32) float64 {
	s := 0.0
	for _, v := range U {
		s += m[v]
	}
	return s
}

// Total returns ‖Φ‖₁.
func (m Measure) Total() float64 {
	s := 0.0
	for _, x := range m {
		s += x
	}
	return s
}

// Max returns ‖Φ‖∞.
func (m Measure) Max() float64 {
	mx := 0.0
	for _, x := range m {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Avg returns ‖Φ‖avg = ‖Φ‖₁ / k.
func (m Measure) Avg(k int) float64 { return m.Total() / float64(k) }

// Clone returns a copy of the measure.
func (m Measure) Clone() Measure { return append(Measure(nil), m...) }

// Uniform returns the measure identically 1 on n vertices.
func Uniform(n int) Measure {
	u := make(Measure, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// Weights returns the vertex-weight measure w of a graph.
func Weights(g *graph.Graph) Measure {
	return append(Measure(nil), g.Weight...)
}

// DegreeWithin returns the measure deg_W(v) (degree inside G[W], used by the
// shrinking procedure of Section 5 to shrink |G[W₁]| geometrically).
// Vertices outside W get measure 0.
func DegreeWithin(s *graph.Sub) Measure {
	m := make(Measure, s.G.N())
	for _, v := range s.Verts {
		m[v] = float64(s.DegreeWithin(v))
	}
	return m
}

// splittingChunk is the vertex granularity of the parallel π sweep.
const splittingChunk = 8192

// splittingParCutoff is the minimum vertex count for which fanning the π
// sweep across workers pays for the goroutine plumbing.
const splittingParCutoff = 1 << 15

// SplittingCostPar returns the p-splitting cost measure of Definition 10:
//
//	π(v) = σ_p^p · Σ_{e ∈ δ(v)} c_e^p / 2,
//
// with the splittability constant σ_p supplied by the caller (use 1 when
// only relative comparisons matter — every use in the pipeline is scale-
// invariant). For any W ⊆ V it holds σ_p·‖c|W‖_p ≤ π(W)^{1/p}, so π(W)^{1/p}
// bounds the cost of splitting G[W].
//
// The per-vertex sweep is fanned across up to par worker goroutines. π(v)
// is an independent sum over v's own incidence list, so every entry is
// computed in the identical floating-point order at any par — the measure
// is bit-identical to the sequential sweep's. par ≤ 1 runs fully
// sequentially with no goroutines. The sweep is pow-heavy (one math.Pow
// per incidence), which is what makes it the dominant prelude of every
// pipeline run on large graphs.
func SplittingCostPar(g *graph.Graph, p, sigma float64, par int) Measure {
	n := g.N()
	m := make(Measure, n)
	sp := math.Pow(sigma, p)
	sweep := func(lo, hi int32) {
		for v := lo; v < hi; v++ {
			s := 0.0
			for _, e := range g.IncidentEdges(v) {
				s += math.Pow(g.Cost[e], p)
			}
			m[v] = sp * s / 2
		}
	}
	if par <= 1 || n < splittingParCutoff {
		sweep(0, int32(n))
		return m
	}
	nChunks := (n + splittingChunk - 1) / splittingChunk
	var next int64
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= nChunks {
				return
			}
			lo := i * splittingChunk
			hi := lo + splittingChunk
			if hi > n {
				hi = n
			}
			sweep(int32(lo), int32(hi))
		}
	}
	workers := par
	if workers > nChunks {
		workers = nChunks
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		//repro:nondeterministic-ok sweep workers write disjoint m[lo:hi] ranges, each entry an independent per-vertex sum — DESIGN.md §14
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return m
}

// CostDegree returns the measure τ(v) = c(δ(v)) used by the separator
// machinery of Appendix A.3 (vertex costs corresponding to edge costs).
func CostDegree(g *graph.Graph) Measure {
	m := make(Measure, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		m[v] = g.CostDegree(v)
	}
	return m
}

// ClassTotals returns Φχ⁻¹ for a coloring: the Φ-measure of each class.
func (m Measure) ClassTotals(coloring []int32, k int) []float64 {
	out := make([]float64, k)
	for v, c := range coloring {
		if c >= 0 {
			out[c] += m[v]
		}
	}
	return out
}

// MaxOver returns ‖Φ|U‖∞ over the given vertex list.
func (m Measure) MaxOver(U []int32) float64 {
	mx := 0.0
	for _, v := range U {
		if m[v] > mx {
			mx = m[v]
		}
	}
	return mx
}
