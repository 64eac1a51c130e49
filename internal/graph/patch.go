package graph

// This file is the incremental topology patcher: the single place where a
// graph's vertex and edge sets change. A Mutation describes insertions and
// removals against a base graph in a *stable addressing* scheme (base ids
// plus appended ids for new vertices, so one mutation never has to know
// its own renumbering), ApplyMutation validates it strictly and produces a
// fresh patched Graph together with the bookkeeping every layer above
// needs: the id remapping, the changed-region vertex set that seeds the
// localized Refine, and the digest delta that lets ContentDigest.Patch
// re-derive the content identity in O(|mutation|) instead of O(M).
//
// Id mapping (tail compaction). Removing vertices must compact the id
// space [0, N). An order-preserving compaction would renumber every
// vertex above the smallest removed id — and with it re-hash every edge
// in their closed neighborhoods, defeating incremental digests for any
// removal near id 0. Tail compaction instead moves only the vertices that
// must move: with R removed vertices the survivor count is cut = N − |R|,
// survivors with id < cut keep their ids, and the surviving tail vertices
// (id ≥ cut) drop into the freed slots below cut, ascending tail id onto
// ascending slot. Appended vertices take ids cut, cut+1, … in order. The
// mapping is a pure function of (N, RemoveVertices, AddVertices) — the
// documented contract independent materializers (the loadgen certifier)
// reproduce without touching this code.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
)

// EdgeInsert is one edge insertion of a Mutation, in stable addressing
// (base ids, or N+i for the i-th added vertex).
type EdgeInsert struct {
	U, V int32
	Cost float64
}

// EdgeRef names an existing edge of the base graph by its endpoints
// (order irrelevant).
type EdgeRef struct {
	U, V int32
}

// Mutation describes a topology change against a base graph. All vertex
// references use stable addressing: existing vertices by their base id in
// [0, N), inserted vertices by N+i for the i-th entry of AddVertices.
// The composition order is fixed: RemoveEdges, then RemoveVertices (which
// implicitly removes their incident edges), then AddVertices, then
// AddEdges. The zero Mutation is empty.
type Mutation struct {
	// AddVertices appends one vertex per entry, carrying its weight.
	AddVertices []float64
	// RemoveVertices lists distinct base ids to delete, along with every
	// incident edge.
	RemoveVertices []int32
	// AddEdges inserts edges; endpoints must be distinct, alive, and not
	// already connected (after RemoveEdges/RemoveVertices take effect).
	AddEdges []EdgeInsert
	// RemoveEdges deletes existing base edges; naming an edge that is also
	// implicitly removed by RemoveVertices is allowed, naming a
	// non-existent edge or the same edge twice is an error.
	RemoveEdges []EdgeRef
}

// TopologyPatch is the result of applying a Mutation: the patched graph
// plus the maps and deltas the session, hierarchy and digest layers need
// to update themselves in O(|mutation|)-ish work instead of from scratch.
type TopologyPatch struct {
	// Graph is the patched graph: fresh arrays, no aliasing with the base
	// (so the base stays valid for transactional rollback).
	Graph *Graph
	// OldToNew maps base ids to patched ids; −1 marks removed vertices.
	OldToNew []int32
	// Survivors is the number of surviving base vertices; inserted
	// vertices occupy ids [Survivors, Graph.N()).
	Survivors int
	// Dirty is the changed-region vertex set in patched ids, sorted
	// ascending: endpoints of inserted/removed edges, surviving neighbors
	// of removed vertices, and every inserted vertex. It seeds the
	// localized refine.
	Dirty []int32
	// Incremental reports that the digest delta was tracked edge by edge;
	// false past the churn threshold (touched edges ≥ patched M), where
	// ContentDigest.Patch re-accumulates in full instead.
	Incremental bool

	baseN, baseM int
	delta        [sha256.Size]byte
}

// NewID maps a stable address (base id, or baseN+i for the i-th inserted
// vertex) to the patched id, −1 if removed or out of range.
func (p *TopologyPatch) NewID(stable int32) int32 {
	switch {
	case stable < 0:
		return -1
	case int(stable) < p.baseN:
		return p.OldToNew[stable]
	case int(stable) < p.baseN+(p.Graph.N()-p.Survivors):
		return int32(p.Survivors) + stable - int32(p.baseN)
	}
	return -1
}

// FindEdge returns the edge id connecting u and v, or −1 if they are not
// adjacent (or out of range). O(min degree).
func (g *Graph) FindEdge(u, v int32) int32 {
	if u == v || u < 0 || v < 0 || int(u) >= g.numV || int(v) >= g.numV {
		return -1
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for _, e := range g.IncidentEdges(u) {
		if g.Other(e, u) == v {
			return e
		}
	}
	return -1
}

// ApplyMutation validates mut against g and builds the patched graph.
// g is never modified; on any validation error the returned patch is nil
// and nothing was allocated that the caller can observe. O(N + M) array
// work plus O(|touched edges|) hashing below the churn threshold.
func ApplyMutation(g *Graph, mut Mutation) (*TopologyPatch, error) {
	nOld, mOld := g.N(), g.M()
	nAdd := len(mut.AddVertices)

	for i, w := range mut.AddVertices {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: mutation adds vertex %d with invalid weight %v", nOld+i, w)
		}
	}

	// Removed-vertex set, then the tail-compaction mapping.
	removed := make([]bool, nOld)
	for _, r := range mut.RemoveVertices {
		if r < 0 || int(r) >= nOld {
			return nil, fmt.Errorf("graph: mutation removes vertex %d out of range [0, %d)", r, nOld)
		}
		if removed[r] {
			return nil, fmt.Errorf("graph: mutation removes vertex %d twice", r)
		}
		removed[r] = true
	}
	cut := nOld - len(mut.RemoveVertices)
	newN := cut + nAdd
	oldToNew := make([]int32, nOld)
	slots := make([]int32, 0, len(mut.RemoveVertices))
	for _, r := range mut.RemoveVertices {
		if int(r) < cut {
			slots = append(slots, r)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	next := 0
	for v := 0; v < nOld; v++ {
		switch {
		case removed[v]:
			oldToNew[v] = -1
		case v < cut:
			oldToNew[v] = int32(v)
		default:
			oldToNew[v] = slots[next]
			next++
		}
	}

	// stableNew maps a stable address to its patched id (−1 = dead).
	stableNew := func(s int32) int32 {
		switch {
		case s < 0 || int(s) >= nOld+nAdd:
			return -2 // out of range, distinct from removed
		case int(s) < nOld:
			return oldToNew[s]
		}
		return int32(cut) + s - int32(nOld)
	}

	// Explicit edge removals: must exist in the base graph, each named once.
	dropEdge := make([]bool, mOld)
	for _, er := range mut.RemoveEdges {
		e := g.FindEdge(er.U, er.V)
		if e < 0 {
			return nil, fmt.Errorf("graph: mutation removes non-existent edge {%d,%d}", er.U, er.V)
		}
		if dropEdge[e] {
			return nil, fmt.Errorf("graph: mutation removes edge {%d,%d} twice", er.U, er.V)
		}
		dropEdge[e] = true
	}

	// Edge insertions: endpoints alive and distinct, no duplicate against
	// surviving base edges or other insertions, valid cost.
	addSeen := make(map[[2]int32]bool, len(mut.AddEdges))
	for i, ei := range mut.AddEdges {
		nu, nv := stableNew(ei.U), stableNew(ei.V)
		if nu == -2 || nv == -2 {
			return nil, fmt.Errorf("graph: mutation edge %d endpoint out of range {%d,%d} (stable space [0, %d))",
				i, ei.U, ei.V, nOld+nAdd)
		}
		if nu == -1 || nv == -1 {
			return nil, fmt.Errorf("graph: mutation edge %d endpoint {%d,%d} references a removed vertex", i, ei.U, ei.V)
		}
		if nu == nv {
			return nil, fmt.Errorf("graph: mutation edge %d is a self-loop at %d", i, ei.U)
		}
		if ei.Cost < 0 || math.IsNaN(ei.Cost) || math.IsInf(ei.Cost, 0) {
			return nil, fmt.Errorf("graph: mutation edge %d has invalid cost %v", i, ei.Cost)
		}
		if int(ei.U) < nOld && int(ei.V) < nOld {
			if e := g.FindEdge(ei.U, ei.V); e >= 0 && !dropEdge[e] {
				return nil, fmt.Errorf("graph: mutation edge %d duplicates existing edge {%d,%d}", i, ei.U, ei.V)
			}
		}
		key := [2]int32{nu, nv}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if addSeen[key] {
			return nil, fmt.Errorf("graph: mutation edge %d duplicates another inserted edge {%d,%d}", i, ei.U, ei.V)
		}
		addSeen[key] = true
	}

	// Classify base edges once to size the new arrays and decide whether
	// tracking the digest delta edge-by-edge beats a full re-accumulation:
	// a drop or an insertion hashes one edge, a renumbered survivor hashes
	// two (old id pair out, new id pair in).
	drops, renumbered := 0, 0
	for e := 0; e < mOld; e++ {
		u, v := g.edgeU[e], g.edgeV[e]
		switch {
		case dropEdge[e] || removed[u] || removed[v]:
			drops++
		case oldToNew[u] != u || oldToNew[v] != v:
			renumbered++
		}
	}
	newM := mOld - drops + len(mut.AddEdges)
	incremental := drops+2*renumbered+len(mut.AddEdges) < newM

	p := &TopologyPatch{
		OldToNew:    oldToNew,
		Survivors:   cut,
		Incremental: incremental,
		baseN:       nOld,
		baseM:       mOld,
	}

	us := make([]int32, 0, newM)
	vs := make([]int32, 0, newM)
	cs := make([]float64, 0, newM)
	for e := 0; e < mOld; e++ {
		u, v := g.edgeU[e], g.edgeV[e]
		if dropEdge[e] || removed[u] || removed[v] {
			if incremental {
				xorInto(&p.delta, edgeDigest(u, v, g.Cost[e]))
			}
			continue
		}
		nu, nv := oldToNew[u], oldToNew[v]
		if nu > nv {
			nu, nv = nv, nu
		}
		if incremental && (nu != u || nv != v) {
			xorInto(&p.delta, edgeDigest(u, v, g.Cost[e]))
			xorInto(&p.delta, edgeDigest(nu, nv, g.Cost[e]))
		}
		us = append(us, nu)
		vs = append(vs, nv)
		cs = append(cs, g.Cost[e])
	}
	for _, ei := range mut.AddEdges {
		nu, nv := stableNew(ei.U), stableNew(ei.V)
		if nu > nv {
			nu, nv = nv, nu
		}
		if incremental {
			xorInto(&p.delta, edgeDigest(nu, nv, ei.Cost))
		}
		us = append(us, nu)
		vs = append(vs, nv)
		cs = append(cs, ei.Cost)
	}

	w := make([]float64, newN)
	for v := 0; v < nOld; v++ {
		if nv := oldToNew[v]; nv >= 0 {
			w[nv] = g.Weight[v]
		}
	}
	copy(w[cut:], mut.AddVertices)

	ng := &Graph{numV: newN, edgeU: us, edgeV: vs, Cost: cs, Weight: w}
	ng.buildAdjacency()
	p.Graph = ng

	// Changed-region set, in patched ids: endpoints of removed and
	// inserted edges, surviving neighbors of removed vertices, inserted
	// vertices.
	dirty := make([]bool, newN)
	for e := 0; e < mOld; e++ {
		if !dropEdge[e] {
			continue
		}
		for _, x := range [2]int32{g.edgeU[e], g.edgeV[e]} {
			if nx := oldToNew[x]; nx >= 0 {
				dirty[nx] = true
			}
		}
	}
	for _, r := range mut.RemoveVertices {
		for _, e := range g.IncidentEdges(r) {
			if no := oldToNew[g.Other(e, r)]; no >= 0 {
				dirty[no] = true
			}
		}
	}
	for _, ei := range mut.AddEdges {
		dirty[stableNew(ei.U)] = true
		dirty[stableNew(ei.V)] = true
	}
	for v := cut; v < newN; v++ {
		dirty[v] = true
	}
	for v, d := range dirty {
		if d {
			p.Dirty = append(p.Dirty, int32(v))
		}
	}
	return p, nil
}
