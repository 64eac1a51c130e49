// Package splitter provides the splitting-set oracle of Definition 3 in
// Steurer (SPAA 2006): given an induced subgraph G[W], arbitrary vertex
// weights w and a splitting value w*, produce a set U ⊆ W with
// |w(U) − w*| ≤ ‖w|W‖∞ / 2 and small boundary cost ∂_W U.
//
// The p-splittability σ_p(G, c) of a graph is the least constant such that
// such sets of cost σ_p·‖c|W‖_p always exist. The whole decomposition
// pipeline of the paper (internal/core) is parameterized by this oracle:
//
//   - grids use the exact GridSplit oracle of Section 6 (see
//     internal/grid and the adapter in this package), giving
//     σ_p = O_d(log^{1/d} φ) for p = d/(d−1);
//   - general mesh-like graphs use an ordered-prefix splitter (BFS or
//     geometric order) optionally post-processed by Fiduccia–Mattheyses
//     refinement;
//   - any balanced-separator routine can be converted into a splitter by
//     the Split procedure of Lemma 37 (internal/separator).
package splitter

import (
	"context"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Splitter is the splitting-set oracle of Definition 3, bound to a graph.
//
// Split must return U ⊆ W with |w(U) − target| ≤ ‖w|W‖∞/2 after clamping
// target into [0, w(W)], choosing U with small boundary cost inside G[W].
// w is indexed by global vertex id; entries outside W are ignored.
//
// Cancellation: ctx is the decomposition run's context. An implementation
// should return nil promptly once ctx is done — nil is the documented
// "no progress" value, which every pipeline stage treats as a signal to
// unwind, and the pipeline entry points (core.Decompose, core.Refine)
// convert the unwound partial coloring into ctx.Err(). Implementations
// whose single call is cheap (all in-tree ones are near-linear in |W|) may
// simply check ctx once at entry; a long-running custom oracle should
// check periodically.
//
// Concurrency: the core pipeline consults the oracle from multiple worker
// goroutines at once whenever core.Options.Parallelism ≠ 1, so Split must
// be safe for concurrent calls (with disjoint or overlapping W) as long as
// the bound graph is not mutated. Every in-tree implementation —
// OrderedPrefix, Refined, and GridAdapter here, plus the Lemma 37 adapter
// in internal/separator — is stateless between calls (all scratch state is
// allocated per call) and satisfies this. A stateful implementation must
// either synchronize internally or be constructed per goroutine.
type Splitter interface {
	Split(ctx context.Context, W []int32, w []float64, target float64) []int32
}

// Order produces a vertex ordering of W used by the prefix splitter.
type Order func(g *graph.Graph, W []int32) []int32

// OrderedPrefix splits by cutting a weight-prefix of a fixed vertex order.
// With a locality-preserving order (BFS on a bounded-degree mesh, or a
// lexicographic/space-filling order on geometric graphs) prefixes have small
// boundary, realizing a practical splittability oracle.
type OrderedPrefix struct {
	G     *graph.Graph
	Order Order
}

// NewBFS returns a prefix splitter ordering each component of G[W] by
// breadth-first search from its smallest-id vertex.
func NewBFS(g *graph.Graph) *OrderedPrefix {
	return &OrderedPrefix{G: g, Order: BFSOrder}
}

// NewByID returns a prefix splitter using ascending vertex ids; useful when
// ids encode geometry (e.g. row-major grids) and as a worst-case baseline.
func NewByID(g *graph.Graph) *OrderedPrefix {
	return &OrderedPrefix{G: g, Order: IDOrder}
}

// Split implements Splitter.
func (s *OrderedPrefix) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	if ctx.Err() != nil {
		return nil
	}
	order := s.Order(s.G, W)
	return BestPrefix(order, w, target)
}

// BFSOrder orders W by BFS within G[W], component by component, starting
// each component at its smallest vertex id (deterministic).
func BFSOrder(g *graph.Graph, W []int32) []int32 {
	sorted := slices.Clone(W)
	slices.Sort(sorted)
	sub := graph.NewSub(g, W)
	defer sub.Release()
	return sub.MultiBFSOrder(nil, sorted)
}

// IDOrder orders W by ascending vertex id.
func IDOrder(_ *graph.Graph, W []int32) []int32 {
	out := append([]int32(nil), W...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// BestPrefix returns the prefix of order whose cumulative weight is nearest
// the target (clamped into [0, total]); the deviation is at most half the
// weight of the pivot element, hence ≤ ‖w|order‖∞ / 2.
func BestPrefix(order []int32, w []float64, target float64) []int32 {
	total := 0.0
	for _, v := range order {
		total += w[v]
	}
	if target < 0 {
		target = 0
	}
	if target > total {
		target = total
	}
	acc := 0.0
	i := 0
	for ; i < len(order); i++ {
		if acc+w[order[i]] > target {
			break
		}
		acc += w[order[i]]
	}
	if i == len(order) {
		return append([]int32(nil), order...)
	}
	if target-acc <= acc+w[order[i]]-target {
		return append([]int32(nil), order[:i]...)
	}
	return append([]int32(nil), order[:i+1]...)
}

// CheckWindow verifies the Definition 3 weight window for a computed
// splitting set: |w(U) − clamp(target)| ≤ ‖w|W‖∞/2 (with float slack).
// It returns true when the window holds. Intended for tests and
// verification harnesses.
func CheckWindow(U, W []int32, w []float64, target float64) bool {
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
	got := 0.0
	for _, v := range U {
		got += w[v]
	}
	d := got - target
	if d < 0 {
		d = -d
	}
	return d <= maxw/2+1e-9*(total+1)
}
