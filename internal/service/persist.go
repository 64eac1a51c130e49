package service

import (
	"sync/atomic"

	"repro"
	"repro/internal/graph"
	"repro/internal/store"
)

// This file is the service ↔ store boundary (DESIGN.md §11): the
// persistence hooks the handlers call after state-bearing successes,
// and the warm-up path New runs when a Store is configured. Every hook
// is a no-op without a Store, so the serving paths read identically
// with persistence on or off.

// optionsRec converts result-relevant options to their durable form.
// P is normalized exactly like OptionsKey (0 means the default 2), so
// a recovered entry re-keys to the identical request key.
func optionsRec(opt repro.Options) store.OptionsRec {
	p := opt.P
	if p == 0 {
		p = 2
	}
	r := store.OptionsRec{K: opt.K, P: p}
	if m := opt.Multilevel; m != nil {
		r.ML = true
		r.MLMinVertices = m.MinVertices
		r.MLMaxLevels = m.MaxLevels
	}
	return r
}

// recOptions converts back. Round-tripping through optionsRec and
// requestKey is the identity on the keys the wire can produce.
func recOptions(r store.OptionsRec) repro.Options {
	opt := repro.Options{K: r.K, P: r.P}
	if r.ML {
		opt.Multilevel = &repro.Multilevel{MinVertices: r.MLMinVertices, MaxLevels: r.MLMaxLevels}
	}
	return opt
}

// persistUpload logs a graph ingestion (raw client bytes — the one
// record kind that carries a whole graph). Called from storeGraph, so
// uploads and first-sight inline graphs both reach the log; the store
// absorbs re-uploads of known ids without a write.
func (s *Server) persistUpload(id string, src []byte, g *graph.Graph, d graph.ContentDigest) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	op := &store.Op{Type: store.TypeUpload, Upload: &store.UploadRec{GraphID: id, Graph: src}}
	op.Memoize(g, d)
	s.appendOp(op)
}

// persistResult logs a completed partition for (graph × options).
// Called inside the flight leader after the cache write, so coalesced
// followers never double-log.
func (s *Server) persistResult(id string, opt repro.Options, res repro.Result) {
	if s.cfg.Store == nil {
		return
	}
	s.appendOp(&store.Op{Type: store.TypeResult, Result: &store.ResultRec{
		GraphID:      id,
		Opt:          optionsRec(opt),
		Coloring:     res.Coloring,
		UsedFallback: res.UsedFallback,
	}})
}

// persistRepart logs a successful repartition: the client's own delta
// (O(|delta|)), the derived id closing the digest chain, the result
// coloring, and the migration entry the session recorded — everything
// recovery needs to rebuild the session without re-running a pipeline.
func (s *Server) persistRepart(baseID string, opt repro.Options, d repro.Delta, nextID string, next storedGraph, res repro.Result, mig repro.Migration) {
	if s.cfg.Store == nil {
		return
	}
	op := &store.Op{Type: store.TypeRepart, Repart: &store.RepartRec{
		BaseID:       baseID,
		Opt:          optionsRec(opt),
		Delta:        store.NewDeltaRec(d),
		NextID:       nextID,
		Coloring:     res.Coloring,
		UsedFallback: res.UsedFallback,
		Migration:    store.NewMigrationRec(mig),
	}}
	op.Memoize(next.g, next.digest)
	s.appendOp(op)
}

// appendOp writes one record, surfacing failures as a counter (the
// serving path never fails a request over a persistence error; the
// stats delta is the operator's signal).
func (s *Server) appendOp(op *store.Op) {
	if err := s.cfg.Store.Append(op); err != nil {
		atomic.AddInt64(&s.persistErrors, 1)
	}
}

// warmFromStore replays the recovered shadow state into the server's
// working structures, in last-touch order so LRU recency survives the
// restart: graphs with their digests first, then cached results (stats
// recomputed deterministically via graph.Stats — diagnostics are
// execution artifacts and come back zero), then sessions, reborn
// through the same Instance machinery the live path uses
// (NewInstance + AdoptColoring + AdoptHistory), so a post-restart
// repartition against a pre-restart session resumes warm with zero
// re-uploads.
func (s *Server) warmFromStore() {
	st := s.cfg.Store
	for _, ge := range st.RecoveredGraphs() {
		s.graphs.put(ge.ID, storedGraph{ge.Graph, ge.Digest})
	}
	for _, re := range st.RecoveredResults() {
		opt := recOptions(re.Opt)
		res := repro.Result{
			Coloring:     re.Coloring,
			Stats:        graph.Stats(re.Graph, re.Coloring, opt.K),
			UsedFallback: re.UsedFallback,
		}
		s.cache.put(requestKey(re.GraphID, opt), res)
	}
	for _, se := range st.RecoveredSessions() {
		opt := recOptions(se.Opt)
		inst, err := s.eng.NewInstance(se.Graph, opt)
		if err != nil {
			continue
		}
		if err := inst.AdoptColoring(se.Coloring); err != nil {
			continue
		}
		inst.AdoptHistory(se.History)
		s.sessions.put(requestKey(se.KeyGraphID, opt), inst)
		atomic.AddInt64(&s.recoveredSessions, 1)
	}
}
