// Package graph provides the weighted-graph substrate used throughout the
// repository: finite undirected graphs without self-loops or parallel edges,
// with non-negative costs on the edges and non-negative weights on the
// vertices, exactly as in Steurer (SPAA 2006), Section 1 ("Notation").
//
// The representation is a compact CSR-style adjacency over an edge list.
// Vertices are identified by int32 ids in [0, N). Edges are identified by
// int32 ids in [0, M); edge e has endpoints (U[e], V[e]) with U[e] < V[e].
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an undirected graph with edge costs and vertex weights.
// The zero value is an empty graph. Construct non-trivial graphs with a
// Builder or one of the generator packages.
type Graph struct {
	numV int

	// Edge list; for edge e, edgeU[e] < edgeV[e].
	edgeU, edgeV []int32

	// Cost[e] is the non-negative cost of edge e (c_e in the paper).
	Cost []float64

	// Weight[v] is the non-negative weight of vertex v (w_v in the paper).
	Weight []float64

	// CSR adjacency: incident edge ids of vertex v are
	// adjEdge[adjStart[v]:adjStart[v+1]].
	adjStart []int32
	adjEdge  []int32
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.numV }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edgeU) }

// Size returns |G| = |V| + |E| as defined in the paper.
func (g *Graph) Size() int { return g.numV + len(g.edgeU) }

// Endpoints returns the two endpoints of edge e, with the first smaller.
func (g *Graph) Endpoints(e int32) (int32, int32) { return g.edgeU[e], g.edgeV[e] }

// Other returns the endpoint of edge e that is not v.
// It panics if v is not an endpoint of e.
//
// Every adjacency loop calls Other once per neighbour, so it must stay
// under the inliner's budget (CI checks that it does). The panic value
// is therefore a small typed value that formats its message only when
// asked, rather than a fmt.Sprintf call here.
func (g *Graph) Other(e, v int32) int32 {
	u, w := g.edgeU[e], g.edgeV[e]
	if v != u && v != w {
		panic(notEndpoint{e, v})
	}
	return u ^ w ^ v
}

// notEndpoint is the panic value of Other: vertex v is not an endpoint of
// edge e.
type notEndpoint struct{ e, v int32 }

func (p notEndpoint) Error() string {
	return fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d", p.v, p.e)
}

// IncidentEdges returns the edge ids incident to v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) IncidentEdges(v int32) []int32 {
	return g.adjEdge[g.adjStart[v]:g.adjStart[v+1]]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int32) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// MaxDegree returns Δ(G), the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.numV; v++ {
		if dv := g.Degree(int32(v)); dv > d {
			d = dv
		}
	}
	return d
}

// CostDegree returns c(δ(v)), the total cost of the edges incident to v.
func (g *Graph) CostDegree(v int32) float64 {
	s := 0.0
	for _, e := range g.IncidentEdges(v) {
		s += g.Cost[e]
	}
	return s
}

// MaxCostDegree returns Δ_c = max_v c(δ(v)), the maximum c-weighted degree.
func (g *Graph) MaxCostDegree() float64 {
	d := 0.0
	for v := 0; v < g.numV; v++ {
		if dv := g.CostDegree(int32(v)); dv > d {
			d = dv
		}
	}
	return d
}

// TotalWeight returns ‖w‖₁ = Σ_v w_v.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, w := range g.Weight {
		s += w
	}
	return s
}

// MaxWeight returns ‖w‖∞ = max_v w_v (0 for an empty graph).
func (g *Graph) MaxWeight() float64 {
	m := 0.0
	for _, w := range g.Weight {
		if w > m {
			m = w
		}
	}
	return m
}

// TotalCost returns ‖c‖₁ = Σ_e c_e.
func (g *Graph) TotalCost() float64 {
	s := 0.0
	for _, c := range g.Cost {
		s += c
	}
	return s
}

// MaxCost returns ‖c‖∞ = max_e c_e (0 for an edgeless graph).
func (g *Graph) MaxCost() float64 {
	m := 0.0
	for _, c := range g.Cost {
		if c > m {
			m = c
		}
	}
	return m
}

// MinPositiveCost returns the minimum strictly positive edge cost,
// or 0 if no edge has positive cost.
func (g *Graph) MinPositiveCost() float64 {
	m := math.Inf(1)
	found := false
	for _, c := range g.Cost {
		if c > 0 && c < m {
			m = c
			found = true
		}
	}
	if !found {
		return 0
	}
	return m
}

// Fluctuation returns φ = ‖c‖∞ / min_e c_e, the ratio of the maximum edge
// cost to the minimum positive edge cost (1 for an edgeless graph).
func (g *Graph) Fluctuation() float64 {
	lo := g.MinPositiveCost()
	if lo == 0 {
		return 1
	}
	return g.MaxCost() / lo
}

// CostNorm returns ‖c‖_p = (Σ_e c_e^p)^{1/p} for p ≥ 1.
// For p = +Inf it returns ‖c‖∞.
func (g *Graph) CostNorm(p float64) float64 {
	return PNorm(g.Cost, p)
}

// LocalFluctuation returns φ_ℓ(c) = max_{u ∈ e} c(δ(u)) / c_e over all
// edges e with positive cost (Appendix A.3). Returns 1 for edgeless graphs.
func (g *Graph) LocalFluctuation() float64 {
	m := 1.0
	for v := int32(0); v < int32(g.numV); v++ {
		dv := g.CostDegree(v)
		for _, e := range g.IncidentEdges(v) {
			if g.Cost[e] > 0 {
				if r := dv / g.Cost[e]; r > m {
					m = r
				}
			}
		}
	}
	return m
}

// Validate checks structural invariants and returns an error describing the
// first violation found: endpoint ordering, id ranges, self-loops, parallel
// edges, negative costs or weights, and CSR consistency.
func (g *Graph) Validate() error {
	n, m := g.numV, len(g.edgeU)
	if len(g.edgeV) != m || len(g.Cost) != m {
		return fmt.Errorf("graph: edge array length mismatch (U=%d V=%d cost=%d)",
			len(g.edgeU), len(g.edgeV), len(g.Cost))
	}
	if len(g.Weight) != n {
		return fmt.Errorf("graph: weight array length %d != N %d", len(g.Weight), n)
	}
	if len(g.adjStart) != n+1 {
		return fmt.Errorf("graph: adjStart length %d != N+1 %d", len(g.adjStart), n+1)
	}
	if len(g.adjEdge) != 2*m {
		return fmt.Errorf("graph: adjEdge length %d != 2M %d", len(g.adjEdge), 2*m)
	}
	seen := make(map[[2]int32]bool, m)
	for e := 0; e < m; e++ {
		u, v := g.edgeU[e], g.edgeV[e]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return fmt.Errorf("graph: edge %d endpoint out of range (%d,%d)", e, u, v)
		}
		if u == v {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", e, u)
		}
		if u > v {
			return fmt.Errorf("graph: edge %d endpoints out of order (%d,%d)", e, u, v)
		}
		key := [2]int32{u, v}
		if seen[key] {
			return fmt.Errorf("graph: parallel edge %d between %d and %d", e, u, v)
		}
		seen[key] = true
		if g.Cost[e] < 0 || math.IsNaN(g.Cost[e]) {
			return fmt.Errorf("graph: edge %d has invalid cost %v", e, g.Cost[e])
		}
	}
	for v := 0; v < n; v++ {
		if g.Weight[v] < 0 || math.IsNaN(g.Weight[v]) {
			return fmt.Errorf("graph: vertex %d has invalid weight %v", v, g.Weight[v])
		}
		if g.adjStart[v] > g.adjStart[v+1] {
			return fmt.Errorf("graph: adjStart not monotone at %d", v)
		}
	}
	// Each edge must appear exactly once in each endpoint's adjacency.
	count := make([]int, m)
	for v := int32(0); v < int32(n); v++ {
		for _, e := range g.IncidentEdges(v) {
			if e < 0 || int(e) >= m {
				return fmt.Errorf("graph: adjacency of %d references edge %d out of range", v, e)
			}
			if g.edgeU[e] != v && g.edgeV[e] != v {
				return fmt.Errorf("graph: adjacency of %d references non-incident edge %d", v, e)
			}
			count[e]++
		}
	}
	for e, cnt := range count {
		if cnt != 2 {
			return fmt.Errorf("graph: edge %d appears %d times in adjacency, want 2", e, cnt)
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		numV:     g.numV,
		edgeU:    append([]int32(nil), g.edgeU...),
		edgeV:    append([]int32(nil), g.edgeV...),
		Cost:     append([]float64(nil), g.Cost...),
		Weight:   append([]float64(nil), g.Weight...),
		adjStart: append([]int32(nil), g.adjStart...),
		adjEdge:  append([]int32(nil), g.adjEdge...),
	}
	return h
}

// Builder accumulates edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at Build time via Validate.
type Builder struct {
	n      int
	us, vs []int32
	cs     []float64
	w      []float64
}

// NewBuilder creates a builder for a graph with n vertices, all with
// weight 1 by default.
func NewBuilder(n int) *Builder {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &Builder{n: n, w: w}
}

// SetWeight sets the weight of vertex v.
func (b *Builder) SetWeight(v int32, w float64) { b.w[v] = w }

// SetWeights copies the given weights (must have length n).
func (b *Builder) SetWeights(w []float64) {
	if len(w) != b.n {
		panic(fmt.Sprintf("graph: SetWeights length %d != n %d", len(w), b.n))
	}
	copy(b.w, w)
}

// Grow preallocates storage for n additional edges, so a caller that
// knows the edge count up front (e.g. Sub.InducedCopy via SizeWithin)
// avoids the append doubling churn.
func (b *Builder) Grow(n int) {
	if n <= 0 || cap(b.us)-len(b.us) >= n {
		return
	}
	us := make([]int32, len(b.us), len(b.us)+n)
	copy(us, b.us)
	b.us = us
	vs := make([]int32, len(b.vs), len(b.vs)+n)
	copy(vs, b.vs)
	b.vs = vs
	cs := make([]float64, len(b.cs), len(b.cs)+n)
	copy(cs, b.cs)
	b.cs = cs
}

// AddEdge adds an undirected edge {u, v} with the given cost.
func (b *Builder) AddEdge(u, v int32, cost float64) {
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.cs = append(b.cs, cost)
}

// Build finalizes the graph, constructing the CSR adjacency.
// It returns an error if the accumulated edges violate graph invariants.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		numV:   b.n,
		edgeU:  b.us,
		edgeV:  b.vs,
		Cost:   b.cs,
		Weight: b.w,
	}
	// Range-check endpoints before building adjacency, which indexes by them.
	for e := range g.edgeU {
		if g.edgeU[e] < 0 || int(g.edgeV[e]) >= b.n {
			return nil, fmt.Errorf("graph: edge %d endpoint out of range (%d,%d)",
				e, g.edgeU[e], g.edgeV[e])
		}
	}
	g.buildAdjacency()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for generators and tests
// whose inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) buildAdjacency() {
	n, m := g.numV, len(g.edgeU)
	deg := make([]int32, n+1)
	for e := 0; e < m; e++ {
		deg[g.edgeU[e]+1]++
		deg[g.edgeV[e]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	g.adjStart = deg
	g.adjEdge = make([]int32, 2*m)
	fill := make([]int32, n)
	for e := 0; e < m; e++ {
		u, v := g.edgeU[e], g.edgeV[e]
		g.adjEdge[g.adjStart[u]+fill[u]] = int32(e)
		fill[u]++
		g.adjEdge[g.adjStart[v]+fill[v]] = int32(e)
		fill[v]++
	}
}

// FromEdges builds a graph directly from parallel edge slices.
// weights may be nil, in which case all weights are 1.
func FromEdges(n int, us, vs []int32, costs []float64, weights []float64) (*Graph, error) {
	if len(us) != len(vs) || len(us) != len(costs) {
		return nil, fmt.Errorf("graph: FromEdges slice length mismatch")
	}
	b := NewBuilder(n)
	if weights != nil {
		b.SetWeights(weights)
	}
	for i := range us {
		b.AddEdge(us[i], vs[i], costs[i])
	}
	return b.Build()
}

// PNorm returns the ℓ_p norm of xs: (Σ x^p)^{1/p} for finite p ≥ 1,
// and max(xs) for p = +Inf. It returns 0 for an empty slice.
func PNorm(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsInf(p, 1) {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if p < 1 {
		panic(fmt.Sprintf("graph: PNorm with p=%v < 1", p))
	}
	// Scale by the max for numerical stability on wide dynamic ranges.
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if m == 0 {
		return 0
	}
	s := 0.0
	if p == 2 {
		// math.Pow(r, 2) rounds the squared mantissa once and scales it by
		// an exact power of two, so it equals r*r bit for bit unless the
		// square is subnormal (|r| < 2^-511), where the scaling rounds a
		// second time; only there is Pow kept. The float64 conversion
		// stops the compiler from fusing r*r into the sum: a multiply-add
		// rounds once where Pow's square rounds before the add.
		for _, x := range xs {
			if r := x / m; math.Abs(r) < 0x1p-511 {
				s += math.Pow(r, 2)
			} else {
				s += float64(r * r)
			}
		}
	} else {
		for _, x := range xs {
			s += math.Pow(x/m, p)
		}
	}
	return m * math.Pow(s, 1/p)
}

// HolderConjugate returns q with 1/p + 1/q = 1. For p = 1 it returns +Inf,
// and for p = +Inf it returns 1.
func HolderConjugate(p float64) float64 {
	if math.IsInf(p, 1) {
		return 1
	}
	if p == 1 {
		return math.Inf(1)
	}
	return p / (p - 1)
}

// SortedEdgeList returns the edges as (u, v, cost) triples sorted
// lexicographically; useful for deterministic output and tests.
func (g *Graph) SortedEdgeList() (us, vs []int32, cs []float64) {
	m := g.M()
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := idx[a], idx[b]
		if g.edgeU[ea] != g.edgeU[eb] {
			return g.edgeU[ea] < g.edgeU[eb]
		}
		return g.edgeV[ea] < g.edgeV[eb]
	})
	us = make([]int32, m)
	vs = make([]int32, m)
	cs = make([]float64, m)
	for i, e := range idx {
		us[i], vs[i], cs[i] = g.edgeU[e], g.edgeV[e], g.Cost[e]
	}
	return us, vs, cs
}
