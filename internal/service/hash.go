package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro"
	"repro/internal/graph"
)

// GraphHash returns the canonical content fingerprint of g, the cache
// identity of an instance. Two graphs hash equal iff they have the same
// vertex count, the same weights, and the same sorted (u, v, cost) edge
// list — construction order never matters. Weights participate in the
// hash, so a reweighted instance is a distinct cache identity: repartition
// chains (day → dusk → night) each get their own cached result.
//
// The fingerprint is graph.ContentHash — the same identity the Instance
// session API reports — so ids derived by the server's incremental path
// (which re-hashes only the weight half) and ids derived by external
// verifiers hashing a materialized graph always agree.
func GraphHash(g *graph.Graph) string {
	return graph.ContentHash(g)
}

// OptionsKey canonicalizes the result-relevant pipeline options. The
// coloring is a deterministic function of (graph, these options), so
// GraphHash(g) + OptionsKey(opt) fully identifies a result.
//
// Parallelism is deliberately excluded: per the core.Options contract it
// changes where the work runs, never which coloring comes out, so runs at
// different parallelism share one cache entry. Splitter, SplitterFactory
// and Measures have no wire representation and must be zero (the handlers
// never set them). Multilevel is included as its raw field values: the
// in-core defaults resolve against K, which is already in the key, so
// equal keys always mean equal effective configurations (the cache-key
// soundness rule of DESIGN.md §9); direct-path keys keep the historical
// format, so pre-multilevel clients hash to the same entries as before.
func OptionsKey(opt repro.Options) string {
	// The exemptions below are machine-checked by the cachekey analyzer
	// (DESIGN.md §13): every non-exempt Options field must feed the key.
	//repro:cachekey-exempt Parallelism — placement-only, never changes the coloring (DESIGN.md §9)
	//repro:cachekey-exempt Splitter — no wire representation; handlers require it zero (DESIGN.md §9)
	//repro:cachekey-exempt SplitterFactory — no wire representation; handlers require it zero (DESIGN.md §9)
	//repro:cachekey-exempt Measures — observability sink only, no result influence (DESIGN.md §9)
	//repro:cachekey-exempt Observer — observability sink only, no result influence (DESIGN.md §9)
	p := opt.P
	if p == 0 {
		p = 2
	}
	key := fmt.Sprintf("k%d;p%g;bb%t;sh%t;ps%t;po%t",
		opt.K, p, opt.SkipBoundaryBalance, opt.SkipShrink, opt.PaperShrink, opt.SkipPolish)
	if m := opt.Multilevel; m != nil {
		key += fmt.Sprintf(";ml%d,%d,%t", m.MinVertices, m.MaxLevels, m.ColdOracles)
	}
	return key
}

// requestKey is the full cache/coalescing key of a partition request.
func requestKey(graphID string, opt repro.Options) string {
	return graphID + "|" + OptionsKey(opt)
}

// deltaDigest fingerprints a repartition request's weight delta — the
// memo key that lets repeated identical deltas skip the instance-sized
// clone-and-rehash. The digest is over the delta only, so its cost is
// proportional to what the client actually sent. Sections are tagged so
// e.g. a Set cannot collide with a Scale of the same values.
func deltaDigest(req *RepartitionRequest) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	f64 := func(f float64) { u64(math.Float64bits(f)) }
	section := func(tag byte, n int) {
		h.Write([]byte{tag})
		u64(uint64(n))
	}
	section('W', len(req.Weights))
	for _, wt := range req.Weights {
		f64(wt)
	}
	section('S', len(req.Set))
	for _, u := range req.Set {
		u64(uint64(uint32(u.V)))
		f64(u.W)
	}
	section('C', len(req.Scale))
	for _, u := range req.Scale {
		u64(uint64(uint32(u.V)))
		f64(u.W)
	}
	if t := req.Topology; t != nil {
		section('V', len(t.AddVertices))
		for _, wt := range t.AddVertices {
			f64(wt)
		}
		section('R', len(t.RemoveVertices))
		for _, v := range t.RemoveVertices {
			u64(uint64(uint32(v)))
		}
		section('E', len(t.AddEdges))
		for _, e := range t.AddEdges {
			u64(uint64(uint32(e.U)))
			u64(uint64(uint32(e.V)))
			f64(e.Cost)
		}
		section('F', len(t.RemoveEdges))
		for _, e := range t.RemoveEdges {
			u64(uint64(uint32(e.U)))
			u64(uint64(uint32(e.V)))
		}
	}
	return fmt.Sprintf("d-%x", h.Sum(nil)[:16])
}
