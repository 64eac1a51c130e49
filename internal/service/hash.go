package service

import (
	"fmt"

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
// different parallelism share one cache entry. Splitter and Measures do
// change colorings, but they have no wire representation: the key stays
// sound only because the handlers never set them. Multilevel is included as its raw field values: the
// in-core defaults resolve against K, which is already in the key, so
// equal keys always mean equal effective configurations (the cache-key
// soundness rule of DESIGN.md §9); direct-path keys keep the historical
// format, so pre-multilevel clients hash to the same entries as before.
func OptionsKey(opt repro.Options) string {
	// The exemptions below are machine-checked by the cachekey analyzer
	// (DESIGN.md §13): every non-exempt Options field must feed the key.
	//repro:cachekey-exempt Parallelism — placement-only, never changes the coloring (DESIGN.md §9)
	//repro:cachekey-exempt Splitter — changes colorings, but has no wire representation and handlers never set it (DESIGN.md §9)
	//repro:cachekey-exempt Measures — changes colorings, but has no wire representation and handlers never set it (DESIGN.md §9)
	//repro:cachekey-exempt Observer — observability sink only, no result influence (DESIGN.md §9)
	p := opt.P
	if p == 0 {
		p = 2
	}
	key := fmt.Sprintf("k%d;p%g;bb%t;sh%t;ps%t;po%t",
		opt.K, p, opt.SkipBoundaryBalance, opt.SkipShrink, opt.PaperShrink, opt.SkipPolish)
	if m := opt.Multilevel; m != nil {
		key += fmt.Sprintf(";ml%d,%d", m.MinVertices, m.MaxLevels)
	}
	return key
}

// requestKey is the full cache/coalescing key of a partition request.
func requestKey(graphID string, opt repro.Options) string {
	return graphID + "|" + OptionsKey(opt)
}
