package graph

// This file provides induced-subgraph views G[W] (the paper's notation for
// the graph induced by a vertex set W), plus BFS orders and connected
// components, which the splitting and separator machinery is built on.
// The traversals draw their visited state from the epoch-stamped scratch
// pool (scratch.go): they run inside the recursion hot loop, once per
// splitting-oracle call, and must not allocate a map each time.

import (
	"fmt"
	"math"
)

// Sub is a lightweight view of the induced subgraph G[W]. It shares the
// parent graph's storage; membership is tracked by a mask indexed by parent
// vertex id. A Sub is cheap to create (O(|W|)) given a reusable mask.
type Sub struct {
	G     *Graph
	Verts []int32 // the vertex set W, in construction order
	in    []bool  // in[v] == true iff v ∈ W; len == G.N()
}

// NewSub creates a view of G[W]. The mask is allocated fresh.
func NewSub(g *Graph, W []int32) *Sub {
	in := make([]bool, g.N())
	for _, v := range W {
		in[v] = true
	}
	return &Sub{G: g, Verts: W, in: in}
}

// NewSubWithMask creates a view reusing a caller-provided mask (which must
// have length G.N() and be all-false). The caller must call Release before
// reusing the mask elsewhere.
func NewSubWithMask(g *Graph, W []int32, mask []bool) *Sub {
	for _, v := range W {
		mask[v] = true
	}
	return &Sub{G: g, Verts: W, in: mask}
}

// Release clears the membership mask so it can be reused.
func (s *Sub) Release() {
	for _, v := range s.Verts {
		s.in[v] = false
	}
}

// Contains reports whether parent vertex v is in W.
func (s *Sub) Contains(v int32) bool { return s.in[v] }

// Len returns |W|.
func (s *Sub) Len() int { return len(s.Verts) }

// EdgesWithin returns the edge ids of E(W) = {e : e ⊆ W}.
func (s *Sub) EdgesWithin() []int32 {
	sc := acquireScratch(0, s.G.M())
	defer releaseScratch(sc)
	var out []int32
	for _, v := range s.Verts {
		for _, e := range s.G.IncidentEdges(v) {
			if s.in[s.G.edgeU[e]] && s.in[s.G.edgeV[e]] && !sc.seenEdge(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// CostWithin returns Σ_{e ∈ E(W)} f(c_e) without materializing the edge
// list. f is applied to each within-edge cost exactly once.
func (s *Sub) CostWithin(f func(c float64) float64) float64 {
	total := 0.0
	for _, v := range s.Verts {
		for _, e := range s.G.IncidentEdges(v) {
			u2, v2 := s.G.edgeU[e], s.G.edgeV[e]
			if !s.in[u2] || !s.in[v2] {
				continue
			}
			// Count each within-edge at its smaller endpoint only.
			if v == min32(u2, v2) {
				total += f(s.G.Cost[e])
			}
		}
	}
	return total
}

// CostNormWithin returns ‖c|W‖_p: the p-norm of the costs of edges running
// inside W, computed in two streaming passes (max for scaling, then the
// scaled power sum — the same numerically stable scheme as PNorm) without
// materializing the cost list.
func (s *Sub) CostNormWithin(p float64) float64 {
	n := 0
	m := 0.0
	s.eachWithinCost(func(c float64) {
		n++
		if c > m {
			m = c
		}
	})
	if n == 0 {
		return 0
	}
	if math.IsInf(p, 1) {
		return m
	}
	if p < 1 {
		panic(fmt.Sprintf("graph: CostNormWithin with p=%v < 1", p))
	}
	if m == 0 {
		return 0
	}
	sum := 0.0
	s.eachWithinCost(func(c float64) {
		sum += math.Pow(c/m, p)
	})
	return m * math.Pow(sum, 1/p)
}

// eachWithinCost applies f to the cost of every edge of E(W) exactly once
// (counted at its smaller endpoint).
func (s *Sub) eachWithinCost(f func(c float64)) {
	for _, v := range s.Verts {
		for _, e := range s.G.IncidentEdges(v) {
			u2, v2 := s.G.edgeU[e], s.G.edgeV[e]
			if s.in[u2] && s.in[v2] && v == min32(u2, v2) {
				f(s.G.Cost[e])
			}
		}
	}
}

// WeightOf returns w(W) for the view's vertex set.
func (s *Sub) WeightOf() float64 {
	t := 0.0
	for _, v := range s.Verts {
		t += s.G.Weight[v]
	}
	return t
}

// BoundaryCostWithin returns ∂_W U: the cost of edges of G[W] with exactly
// one endpoint in U. U must be a subset of W (given as a mask over parent
// ids; entries outside W are ignored).
func (s *Sub) BoundaryCostWithin(inU []bool) float64 {
	t := 0.0
	for _, v := range s.Verts {
		if !inU[v] {
			continue
		}
		for _, e := range s.G.IncidentEdges(v) {
			o := s.G.Other(e, v)
			if s.in[o] && !inU[o] {
				t += s.G.Cost[e]
			}
		}
	}
	return t
}

// InducedCopy materializes G[W] as a standalone Graph. It returns the new
// graph plus the mapping newID → parent vertex id. Weights and costs carry
// over; edges with an endpoint outside W are dropped. The id translation
// is a dense slice indexed by parent id (entries outside W are unused —
// the membership mask guards every read) and the builder's edge storage is
// preallocated from SizeWithin, so the copy allocates exactly what it
// returns.
func (s *Sub) InducedCopy() (*Graph, []int32) {
	toNew := make([]int32, s.G.N())
	toOld := make([]int32, len(s.Verts))
	for i, v := range s.Verts {
		toNew[v] = int32(i)
		toOld[i] = v
	}
	b := NewBuilder(len(s.Verts))
	b.Grow(s.SizeWithin() - len(s.Verts))
	for i, v := range s.Verts {
		b.SetWeight(int32(i), s.G.Weight[v])
	}
	for _, v := range s.Verts {
		for _, e := range s.G.IncidentEdges(v) {
			u2, v2 := s.G.edgeU[e], s.G.edgeV[e]
			if s.in[u2] && s.in[v2] && v == min32(u2, v2) {
				b.AddEdge(toNew[u2], toNew[v2], s.G.Cost[e])
			}
		}
	}
	return b.MustBuild(), toOld
}

// DegreeWithin returns the degree of v inside G[W] (deg_W in Section 5).
func (s *Sub) DegreeWithin(v int32) int {
	d := 0
	for _, e := range s.G.IncidentEdges(v) {
		if s.in[s.G.Other(e, v)] {
			d++
		}
	}
	return d
}

// SizeWithin returns |G[W]| = |W| + |E(W)|.
func (s *Sub) SizeWithin() int {
	m := 0
	for _, v := range s.Verts {
		m += s.DegreeWithin(v)
	}
	return len(s.Verts) + m/2
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// bfsFrom appends the BFS order of start's component to order, using the
// scratch's epoch stamps as visited state (shared across calls, which is
// how Components walks every component with one workspace).
func (s *Sub) bfsFrom(sc *scratch, start int32, order []int32) []int32 {
	head := len(order)
	sc.seen(start)
	return s.bfsDrain(sc, append(order, start), head)
}

// bfsDrain runs the BFS whose FIFO queue is order[head:]: the output slice
// doubles as the queue, since a vertex is enqueued exactly when it is
// emitted, so the order is identical to a separate-queue BFS.
func (s *Sub) bfsDrain(sc *scratch, order []int32, head int) []int32 {
	for head < len(order) {
		v := order[head]
		head++
		for _, e := range s.G.IncidentEdges(v) {
			o := s.G.Other(e, v)
			if s.in[o] && !sc.seen(o) {
				order = append(order, o)
			}
		}
	}
	return order
}

// MultiBFSOrder returns vertices of G[W] in breadth-first order. First come
// those reachable from any of the sources, every source enqueued up front
// in the given order — the seeded traversal behind the warm-start splitter
// ordering. Then, for each start not yet visited, in the given order, the
// BFS order of its component follows. Sources and starts must be in W;
// duplicates are visited once. Passing every vertex of W among the starts
// covers W exactly once. Deterministic for a fixed (W, sources, starts);
// one scratch and one output slice serve the whole traversal.
func (s *Sub) MultiBFSOrder(sources, starts []int32) []int32 {
	sc := acquireScratch(s.G.N(), 0)
	defer releaseScratch(sc)
	order := make([]int32, 0, len(s.Verts))
	for _, v := range sources {
		if !sc.seen(v) {
			order = append(order, v)
		}
	}
	order = s.bfsDrain(sc, order, 0)
	for _, v := range starts {
		if sc.stamp[v] != sc.epoch {
			order = s.bfsFrom(sc, v, order)
		}
	}
	return order
}

// Components returns the connected components of G[W] as vertex lists.
func (s *Sub) Components() [][]int32 {
	sc := acquireScratch(s.G.N(), 0)
	defer releaseScratch(sc)
	var comps [][]int32
	for _, start := range s.Verts {
		if sc.stamp[start] == sc.epoch {
			continue
		}
		comps = append(comps, s.bfsFrom(sc, start, nil))
	}
	return comps
}

// AllVertices returns [0, 1, ..., n-1] as int32 ids.
func AllVertices(g *Graph) []int32 {
	vs := make([]int32, g.N())
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// Components returns the connected components of the whole graph.
func (g *Graph) Components() [][]int32 {
	s := NewSub(g, AllVertices(g))
	return s.Components()
}

// IsConnected reports whether g is connected (true for the empty graph).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.Components()) == 1
}
