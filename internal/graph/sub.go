package graph

// This file provides induced-subgraph views G[W] (the paper's notation for
// the graph induced by a vertex set W), plus BFS orders and connected
// components, which the splitting and separator machinery is built on.
// Membership and the traversals' visited marks share one workspace from
// the epoch-stamped scratch pool (scratch.go): a view is made once per
// splitting-oracle call, inside the recursion hot loop, so it must not
// allocate or clear anything N-sized each time.

import "math"

// Sub is a lightweight view of the induced subgraph G[W]. It shares the
// parent graph's storage; membership is a pooled epoch-stamped workspace
// indexed by parent vertex id, so a view costs O(|W|) to create. Each
// traversal marks the vertices it visits in that workspace, so a view
// must not be traversed from two goroutines at once.
type Sub struct {
	G     *Graph
	Verts []int32  // the vertex set W, in construction order
	in    *scratch // v ∈ W iff in.stamp[v] >= base; traversals mark with later epochs
	base  int32
}

// NewSub creates a view of G[W]. Callers must Release it when done.
func NewSub(g *Graph, W []int32) *Sub {
	in := acquireScratch(g.N())
	for _, v := range W {
		in.stamp[v] = in.epoch
	}
	return &Sub{G: g, Verts: W, in: in, base: in.epoch}
}

// nextMark starts a traversal: it returns an epoch that no member carries
// yet, so a member is visited iff its stamp equals it.
func (s *Sub) nextMark() int32 {
	sc := s.in
	if sc.epoch == math.MaxInt32 {
		clear(sc.stamp)
		for _, v := range s.Verts {
			sc.stamp[v] = 1
		}
		sc.epoch, s.base = 1, 1
	}
	sc.epoch++
	return sc.epoch
}

// Release returns the membership workspace to the pool. The view must not
// be used afterwards.
func (s *Sub) Release() {
	releaseScratch(s.in)
	s.in = nil
}

// Contains reports whether parent vertex v is in W.
func (s *Sub) Contains(v int32) bool { return s.in.stamp[v] >= s.base }

// Len returns |W|.
func (s *Sub) Len() int { return len(s.Verts) }

// InducedCopy materializes G[W] as a standalone Graph. It returns the new
// graph plus the mapping newID → parent vertex id. Weights and costs carry
// over; edges with an endpoint outside W are dropped. The id translation
// is a dense slice indexed by parent id (entries outside W are unused —
// the membership test guards every read) and the builder's edge storage is
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
			if s.Contains(u2) && s.Contains(v2) && v == min32(u2, v2) {
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
		if s.Contains(s.G.Other(e, v)) {
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

// bfsFrom appends the BFS order of start's component to order, marking
// visited members with mark (shared across calls, which is how Components
// walks every component in one traversal).
func (s *Sub) bfsFrom(mark, start int32, order []int32) []int32 {
	head := len(order)
	s.in.stamp[start] = mark
	order, _ = s.bfsDrain(mark, append(order, start), head, nil)
	return order
}

// bfsDrain runs the BFS whose FIFO queue is order[head:]: the output slice
// doubles as the queue, since a vertex is enqueued exactly when it is
// emitted, so the order is identical to a separate-queue BFS. After each
// vertex it appends it calls stop, when stop is non-nil, and returns at
// once with true when stop does.
func (s *Sub) bfsDrain(mark int32, order []int32, head int, stop func(int32) bool) ([]int32, bool) {
	st, base := s.in.stamp, s.base
	for head < len(order) {
		v := order[head]
		head++
		for _, e := range s.G.IncidentEdges(v) {
			o := s.G.Other(e, v)
			if x := st[o]; x >= base && x != mark {
				st[o] = mark
				order = append(order, o)
				if stop != nil && stop(o) {
					return order, true
				}
			}
		}
	}
	return order, false
}

// MultiBFSOrder returns vertices of G[W] in breadth-first order. First come
// those reachable from any of the sources, every source enqueued up front
// in the given order — the seeded traversal behind the warm-start splitter
// ordering. Then, for each start not yet visited, in the given order, the
// BFS order of its component follows. Sources and starts must be in W;
// duplicates are visited once. Passing every vertex of W among the starts
// covers W exactly once. Deterministic for a fixed (W, sources, starts);
// one output slice serves the whole traversal.
func (s *Sub) MultiBFSOrder(sources, starts []int32) []int32 {
	order, _ := s.MultiBFSPrefix(sources, starts, nil)
	return order
}

// MultiBFSPrefix is MultiBFSOrder that may stop early: it calls stop on
// every vertex right after appending it to the order and, once stop
// reports true, returns the order so far, which ends at that vertex, and
// true. A traversal that stop never ends returns MultiBFSOrder's order and
// false; so does a nil stop. The order is a prefix of MultiBFSOrder's in
// either case, and it costs time in proportion to the vertices it appends
// and their degrees. A traversal that may stop early grows its output as
// it goes; one that cannot allocates |W| slots up front.
func (s *Sub) MultiBFSPrefix(sources, starts []int32, stop func(int32) bool) ([]int32, bool) {
	mark := s.nextMark()
	st := s.in.stamp
	var order []int32
	if stop == nil {
		order = make([]int32, 0, len(s.Verts))
	}
	for _, v := range sources {
		if st[v] != mark {
			st[v] = mark
			order = append(order, v)
			if stop != nil && stop(v) {
				return order, true
			}
		}
	}
	order, stopped := s.bfsDrain(mark, order, 0, stop)
	for i := 0; i < len(starts) && !stopped; i++ {
		v := starts[i]
		if st[v] == mark {
			continue
		}
		st[v] = mark
		head := len(order)
		order = append(order, v)
		if stop != nil && stop(v) {
			return order, true
		}
		order, stopped = s.bfsDrain(mark, order, head, stop)
	}
	return order, stopped
}

// Components returns the connected components of G[W] as vertex lists.
func (s *Sub) Components() [][]int32 {
	mark := s.nextMark()
	var comps [][]int32
	for _, start := range s.Verts {
		if s.in.stamp[start] != mark {
			comps = append(comps, s.bfsFrom(mark, start, nil))
		}
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
	defer s.Release()
	return s.Components()
}

// IsConnected reports whether g is connected (true for the empty graph).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.Components()) == 1
}
