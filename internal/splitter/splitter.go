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
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Splitter is the splitting-set oracle of Definition 3, bound to a graph.
//
// Split must return U ⊆ W with |w(U) − target| ≤ ‖w|W‖∞/2 after clamping
// target into [0, w(W)], choosing U with small boundary cost inside G[W].
// w is indexed by global vertex id; entries outside W are ignored. The
// returned slice belongs to the caller and must not share memory with W:
// the core stages cut piece after piece off a list and compact it in
// place after each cut. Every in-tree implementation returns a fresh
// slice.
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

	// streamBFS marks NewBFS's splitter, whose Order is BFSOrder: Split
	// then streams the BFS and stops at the prefix (bfsPrefix) instead of
	// ordering all of W. Left false, Split calls Order.
	streamBFS bool
}

// NewBFS returns a prefix splitter ordering each component of G[W] by
// breadth-first search from its smallest-id vertex. Its Split returns
// BestPrefix(BFSOrder(G, W), w, target), but stops the BFS once that
// prefix is decided.
func NewBFS(g *graph.Graph) *OrderedPrefix {
	return &OrderedPrefix{G: g, Order: BFSOrder, streamBFS: true}
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
	if s.streamBFS {
		return bfsPrefix(s.G, W, w, target)
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

// bfsPrefix returns BestPrefix(BFSOrder(g, W), w, target), byte for byte.
// When W's weights allow it (streamable), it feeds the BFS to the prefix
// rule vertex by vertex and stops the traversal at the pivot, so a small
// piece costs a read pass over W and a traversal of the piece, not an
// ordering of all of W.
func bfsPrefix(g *graph.Graph, W []int32, w []float64, target float64) []int32 {
	sorted, ok := streamable(W, w)
	if !ok {
		return BestPrefix(BFSOrder(g, W), w, target)
	}
	p := newPrefixCut(w, target)
	sub := graph.NewSub(g, W)
	defer sub.Release()
	order, pivot := sub.MultiBFSPrefix(nil, sorted, p.add)
	return p.cut(order, pivot)
}

// IDOrder orders W by ascending vertex id.
func IDOrder(_ *graph.Graph, W []int32) []int32 {
	out := append([]int32(nil), W...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// BestPrefix returns the prefix of order whose cumulative weight is nearest
// the target (clamped into [0, total]); the deviation is at most half the
// weight of the pivot element, hence ≤ ‖w|order‖∞ / 2. An empty prefix is
// nil.
func BestPrefix(order []int32, w []float64, target float64) []int32 {
	total := 0.0
	for _, v := range order {
		total += w[v]
	}
	p := newPrefixCut(w, target)
	if p.target > total {
		p.target = total
	}
	for i, v := range order {
		if p.add(v) {
			return p.cut(order[:i+1], true)
		}
	}
	return p.cut(order, false)
}

// prefixCut is the prefix rule that BestPrefix and the streamed oracles
// share. Fed an order vertex by vertex, it finds the pivot: the first
// vertex whose weight would carry the running sum past the target. The
// cut then falls on whichever side of the pivot lies nearer the target.
//
// The streams never see the whole order, so they cannot clamp the target
// to its total the way BestPrefix does. They need not, when every weight
// is finite and ≥ 0 (streamable): BestPrefix's total starts with exactly
// the running sums that prefixCut computes, and float addition of
// nonnegative numbers never decreases a sum, so total ≥ fl(acc +
// w[pivot]) > target. The clamp cannot fire, and the pivot is the same.
// A stream that finds no pivot has fed the whole order, whose total is
// then at most the target, and both take all of it.
type prefixCut struct {
	w      []float64
	target float64
	acc    float64 // the weight of the vertices fed before the pivot
}

// newPrefixCut starts a cut at target, clamped below at 0.
func newPrefixCut(w []float64, target float64) prefixCut {
	if target < 0 {
		target = 0
	}
	return prefixCut{w: w, target: target}
}

// add reports whether v is the pivot; until then it adds w[v] to the sum.
func (p *prefixCut) add(v int32) bool {
	if p.acc+p.w[v] > p.target {
		return true
	}
	p.acc += p.w[v]
	return false
}

// cut returns a fresh copy of the chosen prefix of order: order ends at the
// pivot when pivot is true, and holds everything fed otherwise. An empty
// prefix is nil.
func (p *prefixCut) cut(order []int32, pivot bool) []int32 {
	if pivot {
		i := len(order) - 1
		if p.target-p.acc <= p.acc+p.w[order[i]]-p.target {
			order = order[:i]
		}
	}
	return append([]int32(nil), order...)
}

// streamable reports whether every weight in W is finite and ≥ 0, the
// condition under which a stream's piece equals BestPrefix's (prefixCut).
// It also returns W in ascending id: W itself when it already is strictly
// ascending, as the core's class lists are, and a sorted copy otherwise.
// One read pass over W.
func streamable(W []int32, w []float64) ([]int32, bool) {
	ascending := true
	for i, v := range W {
		if x := w[v]; !(x >= 0 && x <= math.MaxFloat64) {
			return nil, false
		}
		if i > 0 && W[i-1] >= v {
			ascending = false
		}
	}
	if ascending {
		return W, true
	}
	sorted := slices.Clone(W)
	slices.Sort(sorted)
	return sorted, true
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
