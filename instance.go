package repro

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
)

// Instance is a long-lived handle for repeated queries against one
// evolving graph — the session shape of the drift workload the paper
// motivates (a mesh whose vertex weights change "tremendously depending
// on day-time", re-decomposed continuously), extended to topology churn:
// deltas may also add and remove vertices and edges (mesh refinement,
// region failure, nodes joining and leaving). It owns the per-graph
// state that the engine's one-shot runs recompute on every call:
//
//   - the graph and its canonical SHA-256 content hash, with the
//     topology half of the hash kept as an incrementally patchable digest
//     so a weight drift re-hashes O(N) weights and a topology mutation
//     re-hashes O(|mutation|) edges instead of O(M);
//   - the caller's splitting oracle, when one was supplied
//     (Options.Splitter, NewGridInstance), until a topology delta drops
//     it; otherwise every run uses core's default oracle, exactly as the
//     engine's one-shot runs do;
//   - the current session coloring, which each Repartition resumes from;
//   - the migration history of the session's drift chain.
//
// Methods are safe for concurrent use. Pipeline runs serialize on the
// handle (each resume wants the freshest adopted coloring), but the state
// accessors (Hash, Coloring, Graph, History) and cached-read paths never
// wait behind an in-flight run. Cancellation is transactional:
// a run that returns an error — ctx.Err() included — leaves the Instance
// exactly as it was (graph, hash, coloring, history all unchanged).
//
// The Instance adopts the caller's graph without copying and never
// mutates it: weight drifts swap in fresh weight slices over the shared
// topology. The caller must not mutate the graph after handing it over.
type Instance struct {
	eng *Engine
	opt Options // resolved once: observer, parallelism, the caller's oracle

	// runMu serializes pipeline runs on the handle; mu guards the session
	// state and is never held across a run, so accessors stay O(1) even
	// while a multi-second pipeline is in flight.
	runMu sync.Mutex

	mu       sync.Mutex
	g        *graph.Graph
	digest   graph.ContentDigest
	hash     string
	coloring []int32 // current session coloring; nil until first success
	history  []Migration
}

// NewInstance mints a session handle for g under the given options. The
// graph's content hash is computed once and amortizes across every query
// on the handle. opt.Splitter, when set, must be bound to g; when nil,
// each run mints core's default oracle, so Instance.Partition equals
// Engine.PartitionWithOptions on the same graph and options.
func (e *Engine) NewInstance(g *graph.Graph, opt Options) (*Instance, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("repro: K must be ≥ 1, got %d", opt.K)
	}
	opt = e.resolve(opt)
	digest := graph.NewContentDigest(g)
	return &Instance{
		eng:    e,
		opt:    opt,
		g:      g,
		digest: digest,
		hash:   digest.HashWeights(g.Weight),
	}, nil
}

// NewGridInstance mints a session handle for a grid graph bound to the
// paper's exact GridSplit oracle (Section 6) with the canonical exponent
// p = d/(d−1).
func (e *Engine) NewGridInstance(gr *grid.Grid, k int) (*Instance, error) {
	p := gr.P()
	if math.IsInf(p, 1) {
		p = 2
	}
	return e.NewInstance(gr.G, Options{K: k, P: p, Splitter: splitter.NewGrid(gr)})
}

// Hash returns the canonical content hash of the instance's current
// (possibly drifted) graph — its identity in caches and serving layers.
func (in *Instance) Hash() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hash
}

// Graph returns the instance's current graph. It is a read-only view:
// the topology is shared with every snapshot the session has produced,
// and the weights belong to the session. Mutating it corrupts the handle.
func (in *Instance) Graph() *graph.Graph {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.g
}

// Coloring returns a copy of the current session coloring, or nil if no
// run has succeeded yet.
func (in *Instance) Coloring() []int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.coloring == nil {
		return nil
	}
	return append([]int32(nil), in.coloring...)
}

// History returns a copy of the session's migration history: one entry
// per adopted Repartition, in order.
func (in *Instance) History() []Migration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Migration(nil), in.history...)
}

// AdoptColoring seeds the session coloring without running the pipeline —
// the resume path for serving layers that hold a prior result (e.g. in a
// cache) for the instance's current graph. The coloring must be complete
// for the current graph and the instance's K; it is copied, so the caller
// keeps ownership of its slice.
func (in *Instance) AdoptColoring(chi []int32) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(chi) != in.g.N() {
		return fmt.Errorf("repro: coloring length %d != N %d", len(chi), in.g.N())
	}
	if err := graph.CheckColoring(chi, in.opt.K); err != nil {
		return err
	}
	in.coloring = append([]int32(nil), chi...)
	return nil
}

// AdoptHistory seeds the session's migration history without running
// the pipeline — the recovery counterpart of AdoptColoring, for serving
// layers restoring a session from a durable log so History() after a
// restart reports the same drift chain it did before. The slice is
// copied; it replaces any existing history.
func (in *Instance) AdoptHistory(h []Migration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.history = append([]Migration(nil), h...)
}

// Partition runs the full pipeline on the instance's current graph and
// adopts the coloring as the new session state. ctx cancels the run; on
// any error the previous session state is kept untouched.
func (in *Instance) Partition(ctx context.Context) (Result, error) {
	in.runMu.Lock()
	defer in.runMu.Unlock()
	in.mu.Lock()
	g := in.g
	in.mu.Unlock()
	res, err := core.Decompose(ctx, g, in.opt)
	if err != nil {
		return Result{}, err
	}
	if err := in.eng.audit(g, in.opt, res); err != nil {
		return Result{}, err
	}
	in.mu.Lock()
	// Commit a copy: the caller owns res.Coloring and may mutate it, and
	// the session prior must stay immutable (accessors and resumes rely
	// on it).
	in.coloring = append([]int32(nil), res.Coloring...)
	in.mu.Unlock()
	return res, nil
}

// Repartition applies a delta — a vertex-weight drift, topology
// mutations (vertices and edges appearing and disappearing), or both —
// and resumes the pipeline from the current session coloring: the
// incremental serving path. A weight-only delta shares the session
// topology (no clone), re-hashes from the frozen topology digest in O(N)
// and polishes globally. A topology delta patches the graph and the
// digest (O(|mutation|) amortized, see graph.ContentDigest.Patch),
// drops a caller-supplied splitting oracle (oracles are bound to one
// graph, Definition 3, so this and every later run use core's default),
// and resumes with the prior coloring transported onto the survivors —
// removed vertices drop out, inserted ones adopt the lightest adjacent
// class — polishing only the mutation's dirty region.
//
// With no prior coloring (no successful run yet) the full pipeline runs
// instead, so a cold handle still answers, with the coloring the engine's
// one-shot run gives for the delta's graph and the session's oracle. On
// success the instance adopts the new graph, hash and coloring, and
// appends the migration versus the prior coloring to the session history
// (for a topology delta every inserted vertex counts as migrated; removed
// vertices never do).
// On error — cancellation and invalid mutations included — nothing is
// adopted: the prior coloring is never mutated (refines work on private
// copies), and the handle still answers for the pre-delta graph.
func (in *Instance) Repartition(ctx context.Context, d Delta) (Result, error) {
	in.runMu.Lock()
	defer in.runMu.Unlock()
	// Snapshot under mu, run without it: runMu guarantees no other run
	// commits meanwhile, and an interleaved AdoptColoring merely loses to
	// this run's commit (seeding is last-writer-wins by design). Neither
	// slice is mutated in place anywhere, so the snapshot stays coherent.
	in.mu.Lock()
	g, prior := in.g, in.coloring
	in.mu.Unlock()
	ap, err := d.Apply(g)
	if err != nil {
		return Result{}, err
	}
	g2 := ap.Graph
	opt := in.opt
	if ap.Topo != nil {
		opt.Splitter = nil
	}
	var res Result
	if prior == nil {
		res, err = core.Decompose(ctx, g2, opt)
	} else {
		seed := prior
		if ap.Topo != nil {
			seed = seedAcross(g2, ap.Topo, prior, opt.K)
		}
		// ap.Dirty is nil for a weight-only delta: a global polish.
		res, err = core.Refine(ctx, g2, opt, seed, ap.Dirty)
	}
	if err != nil {
		return Result{}, err
	}
	if err := in.eng.audit(g2, opt, res); err != nil {
		return Result{}, err
	}
	var mig Migration
	if prior != nil && ap.Topo != nil {
		mig = MigrationAcross(g2, ap.Topo.OldToNew, prior, res.Coloring)
	} else if prior != nil {
		mig = MigrationOf(g2, prior, res.Coloring)
	}
	in.mu.Lock()
	in.g = g2
	if ap.Topo != nil {
		in.digest = in.digest.Patch(ap.Topo)
	}
	in.hash = in.digest.HashWeights(g2.Weight)
	in.opt.Splitter = opt.Splitter
	// A copy, for the same reason as in Partition: the caller owns the
	// returned slice.
	in.coloring = append([]int32(nil), res.Coloring...)
	in.history = append(in.history, mig)
	in.mu.Unlock()
	return res, nil
}

// seedAcross transports a prior coloring of the base graph onto the
// patched graph: survivors keep their class, and inserted vertices
// (ascending id) adopt the lightest class among their already-colored
// neighbors — lightest class overall when isolated — so the seed starts
// both complete and as balanced as a local rule can make it before
// Refine re-certifies the Definition 1 window globally.
func seedAcross(g2 *graph.Graph, p *graph.TopologyPatch, prior []int32, k int) []int32 {
	seed := make([]int32, g2.N())
	for i := range seed {
		seed[i] = -1
	}
	cw := make([]float64, k)
	for ov, nv := range p.OldToNew {
		if nv >= 0 {
			c := prior[ov]
			seed[nv] = c
			cw[c] += g2.Weight[nv]
		}
	}
	for v := int32(p.Survivors); int(v) < g2.N(); v++ {
		best := int32(-1)
		bw := math.Inf(1)
		for _, e := range g2.IncidentEdges(v) {
			o := g2.Other(e, v)
			if c := seed[o]; c >= 0 && cw[c] < bw {
				best, bw = c, cw[c]
			}
		}
		if best < 0 {
			best = 0
			for c := int32(1); int(c) < k; c++ {
				if cw[c] < cw[best] {
					best = c
				}
			}
		}
		seed[v] = best
		cw[best] += g2.Weight[v]
	}
	return seed
}
