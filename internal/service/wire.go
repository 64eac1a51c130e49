package service

import (
	"repro"
	"repro/internal/graph"
)

// This file defines the compact JSON wire schema of the serving API.
// Graph payloads ride the textual format of internal/graph/io (see
// graph.Marshal); everything else is plain JSON.

// UploadResponse answers POST /v1/graphs.
type UploadResponse struct {
	// GraphID is the canonical content hash of the uploaded instance; it
	// names the graph in partition and repartition requests, and identical
	// uploads map to the same id.
	GraphID string `json:"graph_id"`
	N       int    `json:"n"`
	M       int    `json:"m"`
}

// PartitionRequest is the body of POST /v1/partition. Exactly one of
// GraphID and Graph must be set.
type PartitionRequest struct {
	// GraphID references a previously uploaded or derived instance.
	GraphID string `json:"graph_id,omitempty"`
	// Graph inlines the instance in the textual format of internal/graph/io.
	Graph string `json:"graph,omitempty"`

	// K is the number of parts; must be ≥ 1.
	K int `json:"k"`
	// P is the Hölder exponent (0 defaults to 2).
	P float64 `json:"p,omitempty"`

	// Multilevel, when present, routes the run through the multilevel
	// (coarsen → solve → project → refine) path. The empty object selects
	// every default. Multilevel results are cached under their own keys:
	// the path changes the coloring, so it is part of result identity.
	Multilevel *MultilevelWire `json:"multilevel,omitempty"`

	// IncludeColoring adds the full per-vertex coloring to the response
	// (omitted by default: stats are usually what dashboards want, and the
	// coloring is N integers).
	IncludeColoring bool `json:"include_coloring,omitempty"`
	// NoCache bypasses the result cache (diagnostics; the run is still
	// coalesced and cached for later requests).
	NoCache bool `json:"no_cache,omitempty"`
}

// MultilevelWire mirrors repro.Multilevel. Zero fields select the
// documented defaults (which resolve against k, so the raw values plus k
// fully determine the effective configuration — the cache-key soundness
// rule of DESIGN.md §9).
type MultilevelWire struct {
	MinVertices int `json:"min_vertices,omitempty"`
	MaxLevels   int `json:"max_levels,omitempty"`
}

// PartitionResponse answers POST /v1/partition.
type PartitionResponse struct {
	GraphID string `json:"graph_id"`
	K       int    `json:"k"`

	// Cached reports that the response was served from the result cache
	// without touching the pipeline.
	Cached bool `json:"cached"`
	// Coalesced reports that this request shared a concurrent identical
	// request's pipeline run.
	Coalesced bool `json:"coalesced,omitempty"`
	// UsedFallback mirrors repro.Result.UsedFallback.
	UsedFallback bool `json:"used_fallback,omitempty"`

	Coloring []int32   `json:"coloring,omitempty"`
	Stats    StatsWire `json:"stats"`
	Diag     DiagWire  `json:"diag"`
}

// WeightUpdate is one sparse vertex-weight change.
type WeightUpdate struct {
	V int32   `json:"v"`
	W float64 `json:"w"`
}

// EdgeWire is one edge insertion: endpoints in stable addresses (base
// ids, or n+i for the i-th added vertex) and the new edge's cost.
type EdgeWire struct {
	U    int32   `json:"u"`
	V    int32   `json:"v"`
	Cost float64 `json:"cost"`
}

// EdgeRefWire names one base edge by its endpoints.
type EdgeRefWire struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// TopologyWire is the topology-mutation block of a repartition request,
// mirroring repro.Delta's topology forms: applied before the weight
// forms, in the canonical order remove_edges → remove_vertices →
// add_vertices → add_edges. All vertex references — edge endpoints and
// the weight forms of the enclosing request — use stable addresses:
// v ∈ [0, n) names a base vertex and n+i names the i-th entry of
// add_vertices, so a request never depends on the renumbering its own
// mutation induces. Validation is strict: removals must name live
// vertices / present edges, insertions must not duplicate surviving
// edges, weights and costs must be finite and non-negative; any
// violation is a 400 and leaves every session untouched.
type TopologyWire struct {
	// AddVertices appends new vertices with the given initial weights.
	AddVertices []float64 `json:"add_vertices,omitempty"`
	// RemoveVertices deletes the named base vertices and their edges.
	RemoveVertices []int32 `json:"remove_vertices,omitempty"`
	// AddEdges inserts edges between live stable endpoints.
	AddEdges []EdgeWire `json:"add_edges,omitempty"`
	// RemoveEdges deletes the named base edges.
	RemoveEdges []EdgeRefWire `json:"remove_edges,omitempty"`
}

// RepartitionRequest is the body of POST /v1/repartition: a delta
// against a cached instance — vertex weights, topology mutations, or
// both. The forms compose in one canonical order: the topology block
// first (see TopologyWire), then Weights (full replacement in the
// stable space, length n + len(add_vertices) when topology is present;
// entries of removed vertices are ignored), then Set (absolute
// per-vertex), then Scale (multiplicative per-vertex — the natural
// encoding of the climate day/night drift). Set or Scale naming a
// removed vertex is a 400.
type RepartitionRequest struct {
	// GraphID names the base instance (required).
	GraphID string `json:"graph_id"`

	K int     `json:"k"`
	P float64 `json:"p,omitempty"`

	Weights []float64      `json:"weights,omitempty"`
	Set     []WeightUpdate `json:"set,omitempty"`
	Scale   []WeightUpdate `json:"scale,omitempty"`

	// Topology, when present and non-empty, mutates the vertex/edge set.
	// The response's graph_id then names the mutated instance (derived
	// via an incremental digest patch, so it equals the canonical content
	// hash an independent rebuild would compute), and further deltas can
	// chain off it.
	Topology *TopologyWire `json:"topology,omitempty"`

	// Multilevel scopes the drift chain to the multilevel-path session of
	// the base instance: the incremental resume itself never re-coarsens
	// (the prior plays the projection's role), but a cold start runs the
	// multilevel pipeline, and results are cached under multilevel keys.
	Multilevel *MultilevelWire `json:"multilevel,omitempty"`

	IncludeColoring bool `json:"include_coloring,omitempty"`
}

// MigrationWire mirrors repro.Migration. The prior it is measured against
// is the repartition session's coloring as of this request — the
// decomposition a deployment is currently running — so a cached repeat of
// a drift the session already absorbed reports zero movement.
type MigrationWire struct {
	// Vertices is the number of vertices whose class changed versus the
	// prior coloring.
	Vertices int `json:"vertices"`
	// Weight is their total weight under the new weight field.
	Weight float64 `json:"weight"`
	// Fraction is Weight over the new total weight.
	Fraction float64 `json:"fraction"`
}

// RepartitionResponse answers POST /v1/repartition.
type RepartitionResponse struct {
	// GraphID identifies the reweighted instance; it is stored and cached,
	// so further deltas can chain off it.
	GraphID string `json:"graph_id"`
	// PriorGraphID echoes the base instance.
	PriorGraphID string `json:"prior_graph_id"`
	K            int    `json:"k"`

	// Cached reports that the reweighted instance's result was already
	// cached, so no pipeline (full or resumed) ran for this request.
	Cached bool `json:"cached,omitempty"`
	// ColdStart reports that no cached coloring existed for the base
	// instance and options, so a full pipeline run happened instead of the
	// incremental resume (migration is reported as zero in that case —
	// there was no prior to migrate from).
	ColdStart bool `json:"cold_start,omitempty"`

	Migration    MigrationWire `json:"migration"`
	UsedFallback bool          `json:"used_fallback,omitempty"`
	Coloring     []int32       `json:"coloring,omitempty"`
	Stats        StatsWire     `json:"stats"`
	Diag         DiagWire      `json:"diag"`
}

// StatsWire mirrors graph.ColoringStats (Definition 1 vocabulary).
type StatsWire struct {
	K                  int       `json:"k"`
	AvgWeight          float64   `json:"avg_weight"`
	MaxWeight          float64   `json:"max_weight"`
	MinWeight          float64   `json:"min_weight"`
	MaxBoundary        float64   `json:"max_boundary"`
	AvgBoundary        float64   `json:"avg_boundary"`
	MaxWeightDeviation float64   `json:"max_weight_deviation"`
	StrictBound        float64   `json:"strict_bound"`
	StrictlyBalanced   bool      `json:"strictly_balanced"`
	ClassWeight        []float64 `json:"class_weight"`
	ClassBoundary      []float64 `json:"class_boundary"`
}

// DiagWire mirrors core.Diagnostics; durations are nanoseconds. The
// multilevel fields are zero (and omitted) on direct-path runs.
type DiagWire struct {
	SplitterCalls  int64 `json:"splitter_calls"`
	Parallelism    int   `json:"parallelism"`
	Levels         int   `json:"levels,omitempty"`
	MultiBalanceNS int64 `json:"multi_balance_ns"`
	AlmostStrictNS int64 `json:"almost_strict_ns"`
	StrictPackNS   int64 `json:"strict_pack_ns"`
	PolishNS       int64 `json:"polish_ns"`
	CoarsenNS      int64 `json:"coarsen_ns,omitempty"`
	TotalNS        int64 `json:"total_ns"`
	// LevelProfile is the multilevel path's per-level breakdown, in solve
	// order (coarsest first, finest last). Omitted on direct-path runs.
	// Schema note: additive field.
	LevelProfile []LevelWire `json:"level_profile,omitempty"`
}

// LevelWire mirrors core.LevelDiag: one hierarchy level's solve or refine,
// durations in nanoseconds. Level counts down toward the finest graph —
// len(levels) is the coarsest solve, 0 the finest refine.
type LevelWire struct {
	Level         int   `json:"level"`
	Vertices      int   `json:"vertices"`
	Edges         int   `json:"edges"`
	SplitterCalls int64 `json:"splitter_calls"`
	WarmHits      int64 `json:"warm_hits,omitempty"`
	DurationNS    int64 `json:"duration_ns"`
}

// StatsResponse answers GET /v1/stats — the serving-side observability
// counters the acceptance tests assert on.
type StatsResponse struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
	GraphsStored   int   `json:"graphs_stored"`
	// Sessions counts live repartition Instance sessions (one per base
	// graph × options drift chain).
	Sessions  int   `json:"sessions"`
	Coalesced int64 `json:"coalesced"`
	// PipelineRuns counts completed pipeline executions (full or resumed);
	// cache hits and coalesced waits do not increment it.
	PipelineRuns int64 `json:"pipeline_runs"`
	// RequestsServed counts requests that reached a work handler (upload,
	// partition, repartition); stats and healthz probes are excluded.
	RequestsServed int64 `json:"requests_served"`
	// RequestsShed counts work requests answered 503 at admission —
	// capacity sheds only; client cancellations are RequestsCancelled.
	RequestsShed int64 `json:"requests_shed"`
	// RequestsCancelled counts work requests that ended 499 (client
	// disconnected mid-run) or 504 (request deadline exceeded): demand the
	// server did not fail to serve, but that stopped wanting an answer.
	RequestsCancelled int64 `json:"requests_cancelled"`
	// BusyNS is the summed work-handler occupancy in nanoseconds, measured
	// with the configured Clock.
	BusyNS int64 `json:"busy_ns"`
	// LogRecords counts records appended to the durable op-log over the
	// store's lifetime, recovered records included. Zero when the server
	// runs without persistence.
	LogRecords int64 `json:"log_records"`
	// Snapshots counts snapshots written by the store this process,
	// the post-recovery snapshot included.
	Snapshots int64 `json:"snapshots"`
	// RecoveredSessions counts repartition sessions rebuilt warm from
	// durable state at boot.
	RecoveredSessions int64 `json:"recovered_sessions"`
	// PersistErrors counts op-log appends that failed. The serving path
	// never fails a request over persistence; this counter is the signal.
	PersistErrors int64 `json:"persist_errors"`
	// Stages summarizes the per-stage pipeline latency histograms (the
	// same distributions GET /metrics exposes in full), keyed by
	// core.StageName. Omitted until the first pipeline run records a
	// stage. Schema note: additive field — older clients that decode with
	// unknown-field tolerance are unaffected.
	Stages map[string]StageStatsWire `json:"stages,omitempty"`
}

// StageStatsWire is the compact per-stage latency summary in /v1/stats:
// histogram-estimated quantiles (nanoseconds; bucket-sound per DESIGN.md
// §12, so each is within one log-spaced bucket width of the exact sample
// quantile) plus the exact count and summed duration.
type StageStatsWire struct {
	Count   int64 `json:"count"`
	P50NS   int64 `json:"p50_ns"`
	P99NS   int64 `json:"p99_ns"`
	TotalNS int64 `json:"total_ns"`
}

// statsWire converts coloring statistics to the wire form.
func statsWire(st graph.ColoringStats) StatsWire {
	return StatsWire{
		K:                  st.K,
		AvgWeight:          st.AvgWeight,
		MaxWeight:          st.MaxWeight,
		MinWeight:          st.MinWeight,
		MaxBoundary:        st.MaxBoundary,
		AvgBoundary:        st.AvgBoundary,
		MaxWeightDeviation: st.MaxWeightDeviation,
		StrictBound:        st.StrictBound,
		StrictlyBalanced:   st.StrictlyBalanced,
		ClassWeight:        st.ClassWeight,
		ClassBoundary:      st.ClassBoundary,
	}
}

// diagWire converts pipeline diagnostics to the wire form.
func diagWire(res repro.Result) DiagWire {
	d := res.Diag
	var levels []LevelWire
	for _, ld := range d.LevelProfile {
		levels = append(levels, LevelWire{
			Level:         ld.Level,
			Vertices:      ld.Vertices,
			Edges:         ld.Edges,
			SplitterCalls: ld.SplitterCalls,
			WarmHits:      ld.WarmHits,
			DurationNS:    ld.Duration.Nanoseconds(),
		})
	}
	return DiagWire{
		LevelProfile:   levels,
		SplitterCalls:  d.SplitterCalls,
		Parallelism:    d.Parallelism,
		Levels:         d.Levels,
		MultiBalanceNS: d.MultiBalance.Nanoseconds(),
		AlmostStrictNS: d.AlmostStrict.Nanoseconds(),
		StrictPackNS:   d.StrictPack.Nanoseconds(),
		PolishNS:       d.Polish.Nanoseconds(),
		CoarsenNS:      d.Coarsen.Nanoseconds(),
		TotalNS:        d.Total.Nanoseconds(),
	}
}
