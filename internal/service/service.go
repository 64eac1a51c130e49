// Package service is the partition-serving subsystem: an HTTP/JSON front
// end over the repro pipeline, built for the repeated-query workloads the
// paper motivates (scientific meshes whose vertex weights drift with the
// day/night cycle, re-decomposed continuously for load balancing).
//
// Architecture (DESIGN.md §6, §8):
//
//   - POST /v1/graphs     — upload an instance (textual graph format);
//     the canonical content hash becomes its id.
//   - POST /v1/partition  — decompose an instance. Results are cached in
//     an LRU keyed by graph-hash × options; concurrent identical misses
//     are coalesced into one pipeline run, which the flight leader
//     executes in one of Config.MaxRuns run slots.
//   - POST /v1/repartition — incremental path: a delta against a stored
//     instance — vertex weights, topology mutations (vertices and edges
//     appearing and disappearing), or both — goes through one handler
//     over repro.Delta.Apply and resumes the pipeline through a
//     repro.Instance session. Weight deltas advance the per-(base graph,
//     options) session, which carries the drift chain's coloring; topology
//     deltas continue the chain under the mutated instance's derived id
//     (the base session stays bound to the base topology).
//   - GET /v1/stats, /v1/healthz — observability.
//
// Serving invariants:
//
//  1. Cache identity is content: a result key is the graph's canonical
//     hash plus the result-relevant options (Parallelism excluded — the
//     pipeline is deterministic, so it cannot change a result).
//  2. Per key, at most one pipeline run is ever in flight (coalescing),
//     and a completed run is reused until evicted (LRU).
//  3. Overload sheds at admission: a miss that finds every run slot
//     taken is 503, never an unbounded backlog.
//  4. A cache entry holds *a* certified strictly balanced coloring for
//     its key: the incremental path populates entries with warm-started
//     (prior-dependent) results so drift chains stay cache hits. The
//     balance and boundary guarantees are identical either way, but
//     byte-level reproducibility across evictions or restarts is not
//     promised for keys first produced by /v1/repartition.
//  5. Request contexts cancel work: a client disconnect or deadline
//     aborts its pipeline run at the next checkpoint, is answered 499
//     (disconnect) or 504 (deadline), counts as cancelled — never as a
//     capacity shed — and never populates the cache or a session.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/store"
)

// statusClientClosedRequest is the nginx-convention status for a request
// whose client disconnected before the response was ready. Nobody reads
// the body; the code exists so the shed accounting can tell client
// cancellations apart from capacity sheds (503).
const statusClientClosedRequest = 499

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// CacheSize is the result-cache capacity in entries (default 256).
	CacheSize int
	// GraphStoreSize is the uploaded-instance capacity (default 64).
	GraphStoreSize int
	// Parallelism is the worker-pool bound for pipeline execution
	// (0 = GOMAXPROCS, per the core.Options contract).
	Parallelism int
	// MaxRuns bounds how many pipeline runs, partition and repartition
	// alike, execute at once; a cache miss that finds all of them busy is
	// answered 503 instead of waiting. Default: GOMAXPROCS.
	MaxRuns int
	// MaxGraphBytes caps upload and inline graph payloads (default 64 MiB).
	MaxGraphBytes int64
	// MaxK rejects absurd part counts at the wire (default 65536).
	MaxK int
	// RequestTimeout, when positive, bounds every work request's context
	// with a server-side deadline: a pipeline still running when it
	// expires is cancelled at its next checkpoint and answered 504 /
	// counted in requests_cancelled. Client-side deadlines cannot produce
	// 504 (an HTTP client that gives up just disconnects, which the
	// server sees as a 499 cancellation), so this knob is what makes the
	// deadline half of the accounting real. 0 means no server-side limit.
	RequestTimeout time.Duration
	// Clock is the time source for the request accounting in /v1/stats
	// (default time.Now). Harnesses inject a deterministic clock here so
	// server-side busy-time accounting is reproducible; it never influences
	// scheduling, only observability.
	Clock func() time.Time
	// Observer, when non-nil, receives pipeline progress callbacks (stage
	// enter/leave, oracle calls, polish rounds) from every run the server
	// executes — the hook the cancellation acceptance tests and metrics
	// exporters attach to. Must be cheap and concurrency-safe; see
	// repro.Observer.
	Observer repro.Observer
	// Store, when non-nil, is the durability subsystem (DESIGN.md §11):
	// uploads, partition results and repartition deltas are appended to
	// its operation log as they succeed, and New replays its recovered
	// state — graphs, digests, cached results, and repartition sessions
	// with their colorings and migration histories — before serving, so
	// a restarted server answers pre-restart drift chains warm, with
	// zero re-uploads. The caller owns the Store's lifecycle (Close it
	// after the server).
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.GraphStoreSize == 0 {
		c.GraphStoreSize = 64
	}
	if c.MaxRuns == 0 {
		c.MaxRuns = runtime.GOMAXPROCS(0)
	}
	if c.MaxGraphBytes == 0 {
		c.MaxGraphBytes = 64 << 20
	}
	if c.MaxK == 0 {
		c.MaxK = 1 << 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server serves decompositions over HTTP. Construct with New, expose via
// Handler, and Close when done (refuses further pipeline runs).
type Server struct {
	cfg     Config
	eng     *repro.Engine
	metrics *serverMetrics
	mux     *http.ServeMux
	cache   *lru[repro.Result]
	flight  *flightGroup

	// graphs holds the uploaded and derived instances, each with the
	// topology half of its content hash, so a repartition derives its
	// target id from an O(N) weight re-hash (after an O(|mutation|) digest
	// patch for a topology delta) instead of an O(M log M) edge re-sort.
	graphs *lru[storedGraph]

	// sessions holds the repartition Instances, keyed by graph id ×
	// options: each carries one chain's session state (current coloring,
	// topology hash digest), so a chain pays the oracle construction and
	// edge-list hash once instead of per request. Weight chains live under
	// their base id, topology chains under the derived id. Sized by
	// GraphStoreSize, not CacheSize: every session pins a full graph, so
	// the uploaded-instance knob is the one that bounds graph memory.
	sessions *lru[*repro.Instance]

	// runs holds one token per executing pipeline run (Config.MaxRuns):
	// a flight leader takes one without blocking or sheds (invariant 3).
	// closed makes every later miss a 503; Close then holds all tokens.
	runs   chan struct{}
	closed atomic.Bool

	pipelineRuns int64

	// Persistence accounting (atomic; exported via Stats): sessions
	// rebuilt from the store at boot, and append failures (the serving
	// path never fails a request over a persistence error — this counter
	// is the operator's signal).
	recoveredSessions int64
	persistErrors     int64

	// Request accounting (atomic; exported via Stats): every request that
	// reaches a handler, how many were shed with 503 (capacity), how many
	// ended 499/504 (client-cancelled or deadline-exceeded), and the
	// summed handler occupancy measured with cfg.Clock.
	requestsServed    int64
	requestsShed      int64
	requestsCancelled int64
	busyNS            int64
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newServerMetrics()
	// The engine-wide observer is the metrics recorder, chaining to the
	// caller's Config.Observer so existing hooks see every event unchanged.
	eng := repro.NewEngine(
		repro.WithParallelism(cfg.Parallelism),
		repro.WithObserver(&metricsObserver{m: m, inner: cfg.Observer}),
	)
	s := &Server{
		cfg:      cfg,
		eng:      eng,
		metrics:  m,
		mux:      http.NewServeMux(),
		cache:    newLRU[repro.Result](cfg.CacheSize),
		flight:   newFlightGroup(),
		graphs:   newLRU[storedGraph](cfg.GraphStoreSize),
		sessions: newLRU[*repro.Instance](cfg.GraphStoreSize),
		runs:     make(chan struct{}, cfg.MaxRuns),
	}
	if cfg.Store != nil {
		// Synchronous warm-up: by the time New returns, every recovered
		// graph, result and session is addressable — the first request
		// after a restart already sees the pre-restart state.
		s.warmFromStore()
	}
	m.registerServerFuncs(s)
	s.mux.HandleFunc("POST /v1/graphs", s.instrument("upload", s.handleUpload))
	s.mux.HandleFunc("POST /v1/partition", s.instrument("partition", s.handlePartition))
	s.mux.HandleFunc("POST /v1/repartition", s.instrument("repartition", s.handleRepartition))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.MetricsHandler())
	return s
}

// statusRecorder captures the response status for the shed counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a work handler with the request accounting: request
// count, 503 (capacity shed) count, 499/504 (client-cancelled) count, and
// handler occupancy measured with the configured clock. Stats and healthz
// probes are left unwrapped so the counters reflect decomposition traffic
// only.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Clock()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		atomic.AddInt64(&s.requestsServed, 1)
		switch rec.status {
		case http.StatusServiceUnavailable:
			atomic.AddInt64(&s.requestsShed, 1)
		case statusClientClosedRequest, http.StatusGatewayTimeout:
			atomic.AddInt64(&s.requestsCancelled, 1)
		}
		took := s.cfg.Clock().Sub(start)
		atomic.AddInt64(&s.busyNS, took.Nanoseconds())
		s.metrics.observeRequest(endpoint, took)
	}
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// errQueueFull sheds a cache miss that finds every run slot busy, and
// errShuttingDown refuses one after Close; the HTTP layer answers both 503.
var (
	errQueueFull    = errors.New("service: every run slot is busy")
	errShuttingDown = errors.New("service: server shutting down")
)

// admit takes a run slot for a flight leader without blocking. The caller
// runs its pipeline and then calls release.
func (s *Server) admit() (release func(), err error) {
	select {
	case s.runs <- struct{}{}:
	default:
		if s.closed.Load() {
			return nil, errShuttingDown
		}
		return nil, errQueueFull
	}
	release = func() { <-s.runs }
	if s.closed.Load() {
		// Close is waiting for this slot: give it back.
		release()
		return nil, errShuttingDown
	}
	return release, nil
}

// Close makes every later cache miss answer 503 and returns once the runs
// already admitted have finished; cache hits are still served. Calling it
// again is a no-op.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Taking every slot waits for the admitted runs to release theirs.
	for range cap(s.runs) {
		s.runs <- struct{}{}
	}
}

// httpError is an error with a dedicated HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// writeJSON emits v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// preferCallerCtxErr rewrites a run's cancellation error to the caller's
// own context error when the caller's context is what died. The flight
// and group execution contexts report plain cancellation whichever way
// the last member left; this restores the per-member distinction the
// accounting documents — a member whose deadline expired is answered 504,
// a disconnected one 499 — and leaves non-context errors untouched.
func preferCallerCtxErr(ctx context.Context, err error) error {
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// writeError maps an error to its HTTP status and a JSON error body.
// Context errors get the cancellation statuses — 499 for a disconnected
// client (nobody reads it; the status feeds the cancelled counter), 504
// for a missed deadline — so they are never mistaken for capacity sheds.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, errQueueFull), errors.Is(err, errShuttingDown):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// storedGraph is one entry of the graph store: an instance and its
// topology digest, evicted together.
type storedGraph struct {
	g      *graph.Graph
	digest graph.ContentDigest
}

// storeGraph registers g under its content hash, with the topology
// digest later reweightings and mutations of the instance derive their
// ids from, and logs the ingestion (src is the raw textual-format
// payload — the bytes the durable record carries).
func (s *Server) storeGraph(g *graph.Graph, src []byte) string {
	d := graph.NewContentDigest(g)
	id := d.HashWeights(g.Weight)
	s.graphs.put(id, storedGraph{g, d})
	s.persistUpload(id, src, g, d)
	return id
}

// lookupGraph returns the stored instance id names, or a 404.
func (s *Server) lookupGraph(id string) (storedGraph, error) {
	sg, ok := s.graphs.get(id)
	if !ok {
		return storedGraph{}, &httpError{http.StatusNotFound,
			fmt.Sprintf("unknown graph_id %q (uploads are LRU-evicted; re-upload)", id)}
	}
	return sg, nil
}

// checkFinite rejects instances with infinite weights or costs.
// graph.Validate already rejects NaN and negatives, but +Inf passes it —
// and an Inf anywhere makes the response stats unencodable as JSON.
func checkFinite(g *graph.Graph) error {
	for v, wt := range g.Weight {
		if math.IsInf(wt, 0) {
			return badRequest("vertex %d has non-finite weight %v", v, wt)
		}
	}
	for e, c := range g.Cost {
		if math.IsInf(c, 0) {
			return badRequest("edge %d has non-finite cost %v", e, c)
		}
	}
	return nil
}

// handleUpload ingests a textual-format graph body.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxGraphBytes+1))
	if err != nil {
		writeError(w, badRequest("reading body: %v", err))
		return
	}
	if int64(len(body)) > s.cfg.MaxGraphBytes {
		writeError(w, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("graph payload exceeds %d bytes", s.cfg.MaxGraphBytes)})
		return
	}
	g, err := graph.Unmarshal(body)
	if err != nil {
		writeError(w, badRequest("parsing graph: %v", err))
		return
	}
	if err := checkFinite(g); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, UploadResponse{GraphID: s.storeGraph(g, body), N: g.N(), M: g.M()})
}

// resolveGraph returns the instance a request names, storing inline
// payloads on first sight.
func (s *Server) resolveGraph(graphID, inline string) (*graph.Graph, string, error) {
	switch {
	case graphID != "" && inline != "":
		return nil, "", badRequest("graph_id and graph are mutually exclusive")
	case inline != "":
		if int64(len(inline)) > s.cfg.MaxGraphBytes {
			return nil, "", &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("graph payload exceeds %d bytes", s.cfg.MaxGraphBytes)}
		}
		g, err := graph.Unmarshal([]byte(inline))
		if err != nil {
			return nil, "", badRequest("parsing inline graph: %v", err)
		}
		if err := checkFinite(g); err != nil {
			return nil, "", err
		}
		return g, s.storeGraph(g, []byte(inline)), nil
	case graphID != "":
		sg, err := s.lookupGraph(graphID)
		if err != nil {
			return nil, "", err
		}
		return sg.g, graphID, nil
	default:
		return nil, "", badRequest("one of graph_id or graph is required")
	}
}

// requestOptions validates and canonicalizes the wire-level options.
func (s *Server) requestOptions(k int, p float64, ml *MultilevelWire) (repro.Options, error) {
	if k < 1 || k > s.cfg.MaxK {
		return repro.Options{}, badRequest("k must be in [1, %d], got %d", s.cfg.MaxK, k)
	}
	if p != 0 && (p <= 1 || math.IsNaN(p) || math.IsInf(p, 0)) {
		return repro.Options{}, badRequest("p must be > 1 (or 0 for the default), got %v", p)
	}
	opt := repro.Options{K: k, P: p}
	if ml != nil {
		if ml.MinVertices < 0 {
			return repro.Options{}, badRequest("multilevel.min_vertices must be ≥ 0, got %d", ml.MinVertices)
		}
		if ml.MaxLevels < 0 || ml.MaxLevels > 64 {
			return repro.Options{}, badRequest("multilevel.max_levels must be in [0, 64], got %d", ml.MaxLevels)
		}
		opt.Multilevel = &repro.Multilevel{
			MinVertices: ml.MinVertices,
			MaxLevels:   ml.MaxLevels,
		}
	}
	return opt, nil
}

// partition serves one (graph, options) query through the cache →
// coalesce → run-slot path under the request's context. It returns the
// result plus how it was obtained.
func (s *Server) partition(ctx context.Context, g *graph.Graph, id string, opt repro.Options, noCache bool) (repro.Result, bool, bool, error) {
	key := requestKey(id, opt)
	if !noCache {
		if res, ok := s.cache.get(key); ok {
			return res, true, false, nil
		}
	}
	res, err, coalesced := s.flight.do(ctx, key, func(execCtx context.Context) (repro.Result, error) {
		release, err := s.admit()
		if err != nil {
			return repro.Result{}, err
		}
		defer release()
		// The run executes under the flight's context: it dies only when
		// every coalesced participant has gone, so one disconnecting client
		// never aborts a run others still wait on.
		res, err := s.eng.PartitionWithOptions(execCtx, g, opt)
		if err != nil {
			// A cancelled run never reaches the cache (invariant 5).
			return repro.Result{}, err
		}
		s.commitRun(key, res)
		s.persistResult(id, opt, res)
		return res, nil
	})
	return res, false, coalesced, err
}

// commitRun counts a completed pipeline run, records its per-level
// metrics and caches it under key: the one commit point of the partition
// and repartition paths, so each run is counted exactly once. Cancelled
// or failed runs never reach it (invariant 5).
func (s *Server) commitRun(key string, res repro.Result) {
	atomic.AddInt64(&s.pipelineRuns, 1)
	s.metrics.observeLevels(res)
	s.cache.put(key, res)
}

// maxJSONBody bounds JSON request bodies: an inline graph roughly doubles
// under JSON string escaping, plus slack for the surrounding fields.
func (s *Server) maxJSONBody() int64 { return 2*s.cfg.MaxGraphBytes + 1<<20 }

// handlePartition serves POST /v1/partition.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	var req PartitionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxJSONBody()))
	// Unknown fields are a 400, not silently dropped: a misspelled option
	// must never quietly select different semantics (and then get cached
	// under the key of what the client thought it asked for).
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequest("decoding request: %v", err))
		return
	}
	g, id, err := s.resolveGraph(req.GraphID, req.Graph)
	if err != nil {
		writeError(w, err)
		return
	}
	opt, err := s.requestOptions(req.K, req.P, req.Multilevel)
	if err != nil {
		writeError(w, err)
		return
	}
	res, cached, coalesced, err := s.partition(r.Context(), g, id, opt, req.NoCache)
	if err != nil {
		writeError(w, preferCallerCtxErr(r.Context(), err))
		return
	}
	resp := PartitionResponse{
		GraphID:      id,
		K:            req.K,
		Cached:       cached,
		Coalesced:    coalesced,
		UsedFallback: res.UsedFallback,
		Stats:        statsWire(res.Stats),
		Diag:         diagWire(res),
	}
	if req.IncludeColoring {
		resp.Coloring = res.Coloring
	}
	writeJSON(w, resp)
}

// requestDelta converts a repartition request to the repro.Delta it
// denotes — the single definition of delta semantics (canonical
// composition order, stable addressing) the session API runs, and the
// client-relative delta the durable log records (O(|delta|), never a
// graph re-marshal). A request whose topology block mutates nothing
// yields a weight-only delta.
func requestDelta(req *RepartitionRequest) repro.Delta {
	d := repro.Delta{Weights: req.Weights}
	for _, u := range req.Set {
		d.Set = append(d.Set, repro.WeightChange{V: u.V, W: u.W})
	}
	for _, u := range req.Scale {
		d.Scale = append(d.Scale, repro.WeightChange{V: u.V, W: u.W})
	}
	t := req.Topology
	if t == nil || topoEmpty(t) {
		return d
	}
	d.AddVertices, d.RemoveVertices = t.AddVertices, t.RemoveVertices
	for _, e := range t.AddEdges {
		d.AddEdges = append(d.AddEdges, repro.EdgeChange{U: e.U, V: e.V, Cost: e.Cost})
	}
	for _, e := range t.RemoveEdges {
		d.RemoveEdges = append(d.RemoveEdges, repro.EdgeChange{U: e.U, V: e.V})
	}
	return d
}

// session returns the repartition Instance for a base graph × options,
// keyed like the base's cached result, minting one on first use. A fresh
// session adopts that cached result's coloring when one exists.
// Concurrent first requests may briefly race two instances for one key;
// the LRU keeps the last, and correctness never depends on which one
// served a request.
func (s *Server) session(key string, base *graph.Graph, opt repro.Options) (*repro.Instance, error) {
	if inst, ok := s.sessions.peek(key); ok {
		return inst, nil
	}
	inst, err := s.eng.NewInstance(base, opt)
	if err != nil {
		return nil, err
	}
	if prior, ok := s.cache.peek(key); ok {
		// Ignore adoption errors: a stale or mismatched prior just means a
		// cold start, which Instance.Repartition handles.
		_ = inst.AdoptColoring(prior.Coloring)
	}
	s.sessions.put(key, inst)
	return inst, nil
}

// migration measures how far next moved from prior across the applied
// delta: vertex by vertex for a weight delta, across the id remap for a
// topology delta (inserted vertices always migrate, removed ones never
// do). A missing prior, or one of another vertex count, reports none.
func migration(ap repro.Applied, prior, next []int32) repro.Migration {
	switch {
	case prior == nil:
	case ap.Topo != nil && len(prior) == len(ap.Topo.OldToNew):
		return repro.MigrationAcross(ap.Graph, ap.Topo.OldToNew, prior, next)
	case ap.Topo == nil && len(prior) == ap.Graph.N():
		return repro.MigrationOf(ap.Graph, prior, next)
	}
	return repro.Migration{}
}

// handleRepartition serves POST /v1/repartition, one sequence for weight
// and topology deltas alike. It applies the request's delta to the named
// base with repro.Delta.Apply (Weights, then Set, then Scale, always
// relative to the base, so request meaning never depends on what a
// session has absorbed since), and derives the target id from the base's
// stored digest — patched in O(|mutation|) amortized for a topology
// delta, then an O(N) weight re-hash. The id equals the canonical
// content hash of the patched graph, so the cache stays
// content-addressed. On a cache miss it runs Instance.Repartition under
// the request's context. Invalid deltas and cancelled runs leave every
// session, graph and cache entry untouched.
//
// The session policy is the one the op-log replay mirrors
// (store.applyRepart). A weight delta advances the base-keyed session,
// which carries the drift chain. A topology delta never does: that
// session's coloring lives in the base vertex space, and later weight
// deltas against the base id must keep resolving there. Instead a fresh
// instance seeded from the prior absorbs the mutation and is stored under
// the derived id, so deltas chaining off the response's graph_id resume
// warm.
func (s *Server) handleRepartition(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req RepartitionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxJSONBody()))
	// Strict decoding, like the partition path: an unknown field (e.g. a
	// misspelled topology key) is a 400, never a silent no-op.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequest("decoding request: %v", err))
		return
	}
	if req.GraphID == "" {
		writeError(w, badRequest("graph_id is required"))
		return
	}
	opt, err := s.requestOptions(req.K, req.P, req.Multilevel)
	if err != nil {
		writeError(w, err)
		return
	}
	base, err := s.lookupGraph(req.GraphID)
	if err != nil {
		writeError(w, err)
		return
	}
	d := requestDelta(&req)
	ap, err := d.Apply(base.g)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	next := storedGraph{ap.Graph, base.digest}
	if ap.Topo != nil {
		next.digest = base.digest.Patch(ap.Topo)
	}
	nextID := next.digest.HashWeights(next.g.Weight)

	// Snapshot the prior the migration report is measured against: the
	// base session's current coloring, or the cached base result a fresh
	// session would adopt.
	baseKey := requestKey(req.GraphID, opt)
	var prior []int32
	if inst, ok := s.sessions.peek(baseKey); ok {
		prior = inst.Coloring()
	}
	if prior == nil {
		if res, ok := s.cache.peek(baseKey); ok {
			prior = res.Coloring
		}
	}
	coldStart := prior == nil

	key := requestKey(nextID, opt)
	res, cached := s.cache.get(key)
	if !cached {
		res, err, _ = s.flight.do(ctx, key, func(execCtx context.Context) (repro.Result, error) {
			release, err := s.admit()
			if err != nil {
				return repro.Result{}, err
			}
			defer release()
			// runPrior is the coloring the run resumes from: the durable
			// record carries the migration entry the instance itself
			// appends, which is measured against it.
			runPrior, runDelta := prior, d
			var inst *repro.Instance
			if ap.Topo == nil {
				if inst, err = s.session(baseKey, base.g, opt); err != nil {
					return repro.Result{}, err
				}
				runPrior = inst.Coloring()
				// The session absorbs the materialized weight field, never
				// the client's Set/Scale: those are relative to the named
				// base, and the session may already have absorbed other
				// deltas.
				runDelta = repro.Delta{Weights: next.g.Weight}
			} else {
				if inst, err = s.eng.NewInstance(base.g, opt); err != nil {
					return repro.Result{}, err
				}
				if prior != nil {
					// Adoption failure just means a cold start, as in session().
					_ = inst.AdoptColoring(prior)
				}
			}
			out, err := inst.Repartition(execCtx, runDelta)
			if err != nil {
				// Cancelled or failed: the instance kept its prior state and
				// no cache entry is written (invariant 5).
				return repro.Result{}, err
			}
			s.commitRun(key, out)
			if ap.Topo != nil {
				s.sessions.put(key, inst)
			}
			// Leader-only (inside the flight), so coalesced followers and
			// cached repeats never double-log.
			s.persistRepart(req.GraphID, opt, d, nextID, next, out,
				migration(ap, runPrior, out.Coloring))
			return out, nil
		})
		if err != nil {
			writeError(w, preferCallerCtxErr(ctx, err))
			return
		}
	}

	// (Re-)register the derived instance under the id we are about to hand
	// out — on every successful answer, cached repeats included, so the id
	// stays addressable for chains and follow-up /v1/partition queries even
	// after uploads evicted it. A weight delta's graph shares the base
	// topology and drifts swap fresh weight slices, so the stored snapshot
	// can never be mutated. (Deliberately not inst.Hash()/inst.Graph(): a
	// concurrent drift on the same session may already have advanced those
	// past this request's state.)
	s.graphs.put(nextID, next)

	mig := migration(ap, prior, res.Coloring)
	resp := RepartitionResponse{
		GraphID:      nextID,
		PriorGraphID: req.GraphID,
		K:            req.K,
		Cached:       cached,
		ColdStart:    coldStart,
		Migration:    MigrationWire{Vertices: mig.Vertices, Weight: mig.Weight, Fraction: mig.Fraction},
		UsedFallback: res.UsedFallback,
		Stats:        statsWire(res.Stats),
		Diag:         diagWire(res),
	}
	if req.IncludeColoring {
		resp.Coloring = res.Coloring
	}
	writeJSON(w, resp)
}

// topoEmpty reports whether a topology block mutates nothing.
func topoEmpty(t *TopologyWire) bool {
	return len(t.AddVertices) == 0 && len(t.RemoveVertices) == 0 &&
		len(t.AddEdges) == 0 && len(t.RemoveEdges) == 0
}

// Stats returns the serving counters — the same snapshot /v1/stats
// serializes, exported so in-process harnesses (internal/loadgen) can read
// them without an HTTP round trip.
func (s *Server) Stats() StatsResponse {
	hits, misses, evictions := s.cache.counters()
	st := StatsResponse{
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEvictions:    evictions,
		CacheEntries:      s.cache.len(),
		GraphsStored:      s.graphs.len(),
		Sessions:          s.sessions.len(),
		Coalesced:         s.flight.coalescedCount(),
		PipelineRuns:      atomic.LoadInt64(&s.pipelineRuns),
		RequestsServed:    atomic.LoadInt64(&s.requestsServed),
		RequestsShed:      atomic.LoadInt64(&s.requestsShed),
		RequestsCancelled: atomic.LoadInt64(&s.requestsCancelled),
		BusyNS:            atomic.LoadInt64(&s.busyNS),
		RecoveredSessions: atomic.LoadInt64(&s.recoveredSessions),
		PersistErrors:     atomic.LoadInt64(&s.persistErrors),
	}
	if s.cfg.Store != nil {
		m := s.cfg.Store.Metrics()
		st.LogRecords = m.Records
		st.Snapshots = m.Snapshots
	}
	st.Stages = s.metrics.stageSummaries()
	return st
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]bool{"ok": true})
}
