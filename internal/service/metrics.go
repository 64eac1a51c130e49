package service

import (
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
)

// Metric names exposed at GET /metrics. Stage and request latencies are
// histograms over the canonical log-spaced latency layout; everything the
// existing /v1/stats response carries is re-exposed as func-backed
// counters and gauges reading the same atomics, so the two surfaces can
// never disagree.
const (
	metricStageDuration   = "repro_stage_duration_seconds"
	metricRequestDuration = "repro_request_duration_seconds"
	metricLevelDuration   = "repro_multilevel_level_duration_seconds"
)

// serverMetrics is the Server's metrics surface: a registry plus the
// instruments hot paths record into directly. Construct before the
// engine — the engine's observer chain needs the stage histograms.
type serverMetrics struct {
	reg *metrics.Registry

	oracleCalls   *metrics.Counter
	polishRounds  *metrics.Counter
	polishImprove *metrics.Counter
	warmHits      *metrics.Counter
}

func newServerMetrics() *serverMetrics {
	reg := metrics.New()
	return &serverMetrics{
		reg: reg,
		oracleCalls: reg.Counter("repro_oracle_calls_total",
			"Splitting-oracle invocations across all pipeline runs."),
		polishRounds: reg.Counter("repro_polish_rounds_total",
			"Polish sweeps across all pipeline runs."),
		polishImprove: reg.Counter("repro_polish_improved_total",
			"Polish sweeps that improved the coloring."),
		warmHits: reg.Counter("repro_warm_oracle_hits_total",
			"Per-level oracle calls served from the warm frontier order (DESIGN.md §14)."),
	}
}

// stageHistogram returns the per-stage latency histogram for one stage
// name. Get-or-create is idempotent, so hot paths call this directly.
func (m *serverMetrics) stageHistogram(stage repro.StageName) *metrics.Histogram {
	return m.reg.Histogram(metricStageDuration,
		"Pipeline stage wall time by stage name, in seconds.",
		metrics.DefaultLatencyBuckets(), metrics.Label{Key: "stage", Value: string(stage)})
}

// observeRequest records one work-request duration under its endpoint.
func (m *serverMetrics) observeRequest(endpoint string, took time.Duration) {
	m.reg.Histogram(metricRequestDuration,
		"Work-request handler time by endpoint, in seconds.",
		metrics.DefaultLatencyBuckets(), metrics.Label{Key: "endpoint", Value: endpoint}).
		Observe(took.Seconds())
}

// observeLevels records a completed multilevel run's per-level durations
// and warm-oracle hits. Unlike the per-stage histograms, the per-level
// profile exists only in Diagnostics (the Observer protocol carries no
// level attribution), so Server.commitRun feeds it once per completed
// pipeline run. Direct-path runs carry an empty profile and record
// nothing. Level-label cardinality is bounded by Multilevel.MaxLevels
// (≤ 64).
func (m *serverMetrics) observeLevels(res repro.Result) {
	for _, ld := range res.Diag.LevelProfile {
		m.reg.Histogram(metricLevelDuration,
			"Multilevel per-level solve/refine wall time, by hierarchy level (0 = finest).",
			metrics.DefaultLatencyBuckets(),
			metrics.Label{Key: "level", Value: strconv.Itoa(ld.Level)}).
			Observe(ld.Duration.Seconds())
		if ld.WarmHits > 0 {
			m.warmHits.Add(ld.WarmHits)
		}
	}
}

// metricsObserver is the repro.Observer the Server attaches engine-wide:
// it records every stage leave into the per-stage histograms and counts
// oracle calls and polish rounds, then forwards each event to the
// caller's Config.Observer (when one is set) so existing hooks keep
// working unchanged. Callbacks stay cheap per the Observer contract: one
// atomic histogram record or counter add each.
type metricsObserver struct {
	m     *serverMetrics
	inner repro.Observer
}

func (o *metricsObserver) StageEnter(s repro.StageName) {
	if o.inner != nil {
		o.inner.StageEnter(s)
	}
}

func (o *metricsObserver) StageLeave(s repro.StageName, took time.Duration) {
	o.m.stageHistogram(s).Observe(took.Seconds())
	if o.inner != nil {
		o.inner.StageLeave(s, took)
	}
}

func (o *metricsObserver) OracleCall(total int64) {
	// The callback carries a per-run running total; the event itself is
	// what is countable across interleaved runs — one call per event.
	o.m.oracleCalls.Inc()
	if o.inner != nil {
		o.inner.OracleCall(total)
	}
}

func (o *metricsObserver) PolishRound(round int, improved bool) {
	o.m.polishRounds.Inc()
	if improved {
		o.m.polishImprove.Inc()
	}
	if o.inner != nil {
		o.inner.PolishRound(round, improved)
	}
}

// registerServerFuncs exposes the /v1/stats counters as scrape-time
// metrics reading the same atomics (and LRU counters) the JSON stats
// read, so /metrics and /v1/stats can never drift apart.
func (m *serverMetrics) registerServerFuncs(s *Server) {
	counter := func(name, help string, fn func() float64) {
		m.reg.CounterFunc(name, help, nil, fn)
	}
	gauge := func(name, help string, fn func() float64) {
		m.reg.GaugeFunc(name, help, nil, fn)
	}
	counter("repro_cache_hits_total", "Result-cache hits.", func() float64 {
		h, _, _ := s.cache.counters()
		return float64(h)
	})
	counter("repro_cache_misses_total", "Result-cache misses.", func() float64 {
		_, mi, _ := s.cache.counters()
		return float64(mi)
	})
	counter("repro_cache_evictions_total", "Result-cache evictions.", func() float64 {
		_, _, e := s.cache.counters()
		return float64(e)
	})
	gauge("repro_cache_entries", "Result-cache resident entries.", func() float64 {
		return float64(s.cache.len())
	})
	gauge("repro_graphs_stored", "Resident uploaded or derived instances.", func() float64 {
		return float64(s.graphs.len())
	})
	gauge("repro_sessions", "Live repartition drift-chain sessions.", func() float64 {
		return float64(s.sessions.len())
	})
	counter("repro_coalesced_total", "Requests that shared another request's pipeline run.", func() float64 {
		return float64(s.flight.coalescedCount())
	})
	counter("repro_pipeline_runs_total", "Completed pipeline executions (full or resumed).", func() float64 {
		return float64(atomic.LoadInt64(&s.pipelineRuns))
	})
	counter("repro_requests_served_total", "Requests that reached a work handler.", func() float64 {
		return float64(atomic.LoadInt64(&s.requestsServed))
	})
	counter("repro_requests_shed_total", "Work requests answered 503 at admission (capacity sheds).", func() float64 {
		return float64(atomic.LoadInt64(&s.requestsShed))
	})
	counter("repro_requests_cancelled_total", "Work requests that ended 499 or 504.", func() float64 {
		return float64(atomic.LoadInt64(&s.requestsCancelled))
	})
	counter("repro_busy_seconds_total", "Summed work-handler occupancy in seconds.", func() float64 {
		return float64(atomic.LoadInt64(&s.busyNS)) / 1e9
	})
	counter("repro_recovered_sessions_total", "Repartition sessions rebuilt warm from durable state at boot.", func() float64 {
		return float64(atomic.LoadInt64(&s.recoveredSessions))
	})
	counter("repro_persist_errors_total", "Op-log appends that failed.", func() float64 {
		return float64(atomic.LoadInt64(&s.persistErrors))
	})
	if s.cfg.Store != nil {
		st := s.cfg.Store
		counter("repro_log_records_total", "Records appended to the durable op-log, recovered included.", func() float64 {
			return float64(st.Metrics().Records)
		})
		counter("repro_snapshots_total", "Snapshots written by the store this process.", func() float64 {
			return float64(st.Metrics().Snapshots)
		})
	}
}

// stageSummaries converts the per-stage histograms into the compact
// summary form /v1/stats carries (counts and p50/p99/total in
// nanoseconds), keyed by stage name. Empty until the first pipeline run.
func (m *serverMetrics) stageSummaries() map[string]StageStatsWire {
	snaps := m.reg.HistogramSnapshots(metricStageDuration, "stage")
	if len(snaps) == 0 {
		return nil
	}
	out := make(map[string]StageStatsWire, len(snaps))
	for stage, snap := range snaps {
		out[stage] = StageStatsWire{
			Count:   snap.Count,
			P50NS:   int64(snap.Quantile(0.5) * 1e9),
			P99NS:   int64(snap.Quantile(0.99) * 1e9),
			TotalNS: int64(snap.Sum * 1e9),
		}
	}
	return out
}

// StageNames returns the stage names with recorded timings, sorted —
// what harnesses assert against the core.StageName set.
func (s *Server) StageNames() []string {
	names := make([]string, 0, 8)
	for name := range s.metrics.stageSummaries() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MetricsHandler returns the GET /metrics handler (Prometheus text
// exposition of the server's registry).
func (s *Server) MetricsHandler() http.Handler { return s.metrics.reg.Handler() }
