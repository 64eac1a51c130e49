package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// ReportSchema versions the BENCH_service.json contract. Bump only with a
// deliberate format change; downstream PRs diff these files across
// commits as the service perf trajectory.
//
// Compatibility note — repro-loadgen/2 (vs /1): requests gained a
// "cancelled" outcome (client-cancelled or deadline-exceeded requests,
// answered 499/504 — previously folded into "failed"), and the embedded
// server snapshot gained "sessions", "jobs_dropped" and
// "requests_cancelled" counters, which split the former shed accounting
// into capacity sheds (503) versus client cancellations. All /1 fields
// are retained with unchanged meaning, so a /1 consumer that ignores
// unknown fields reads a /2 report correctly except for the
// failed-vs-cancelled split. Within /2, profiles later gained the
// additive "multilevel_fraction" knob (and trace requests a "multilevel"
// flag): strictly new optional fields, so no schema bump — consumers
// that ignore unknown fields are unaffected.
//
// Compatibility note — repro-loadgen/3 (vs /2): the trace gained the
// "churn" operation kind (topology-mutation repartitions: vertices and
// edges appearing and disappearing within a session), so "by_kind" and
// "latency_by_kind_ms" can carry a "churn" entry, profiles gained the
// "churn" mix weight and "churn_steps" knob, and the migration section
// gained the "topology_mutations" counter (successful topology-mutation
// repartitions; these are also included in "repartitions" and the
// migration aggregates). All /2 fields are retained with unchanged
// meaning, so a /2 consumer that ignores unknown fields and map keys
// reads a /3 report correctly. Within /3, the embedded server snapshot
// later gained the durable-state counters "log_records", "snapshots",
// "recovered_sessions" and "persist_errors" (DESIGN.md §11; zero when
// the server runs without a store): strictly new additive fields, so no
// schema bump — consumers that ignore unknown fields are unaffected.
//
// Compatibility note — repro-loadgen/4 (vs /3): latency summaries gained
// "p999"; reports gained the capacity-search block — "capacity_rps",
// "capacity_p99_bound_ms" and "capacity_sweep" (per-rate-step outcomes;
// present only when the run included a capacity search) — and the
// embedded server snapshot gained "stages", the per-stage pipeline
// latency summaries backed by the serving tier's histograms (the same
// distributions GET /metrics exposes in full). All /3 fields are
// retained with unchanged meaning, so a /3 consumer that ignores unknown
// fields reads a /4 report correctly.
//
// Compatibility note — repro-loadgen/5 (vs /4): the embedded server
// snapshot lost "batches_drained", "jobs_executed" and "jobs_dropped",
// the batch scheduler's counters, which went with the scheduler (the
// server now runs each cache miss in its flight leader, under one bound
// on concurrent runs). Every other /4 field is retained with unchanged
// meaning, so a /4 consumer that does not read those three reads a /5
// report correctly.
const ReportSchema = "repro-loadgen/5"

// LatencySummary is a percentile digest of successful-request latencies.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean"`
	P50MS  float64 `json:"p50"`
	P90MS  float64 `json:"p90"`
	P95MS  float64 `json:"p95"`
	P99MS  float64 `json:"p99"`
	// P999MS is the 99.9th percentile (schema /4) — the tail the capacity
	// search watches alongside p99.
	P999MS float64 `json:"p999"`
	MaxMS  float64 `json:"max"`
}

// RequestCounts tallies the measured body by outcome and kind.
type RequestCounts struct {
	Total int `json:"total"`
	OK    int `json:"ok"`
	// Shed counts capacity sheds (503).
	Shed int `json:"shed"`
	// Cancelled counts client-cancelled or deadline-exceeded requests
	// (499/504) — schema /2; /1 folded these into Failed.
	Cancelled int            `json:"cancelled"`
	Failed    int            `json:"failed"`
	ByKind    map[string]int `json:"by_kind"`
}

// CacheSummary is the measured-body delta of the serving cache counters
// plus the client-observed response flags.
type CacheSummary struct {
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	Evictions       int64   `json:"evictions"`
	HitRate         float64 `json:"hit_rate"`
	Coalesced       int64   `json:"coalesced"`
	PipelineRuns    int64   `json:"pipeline_runs"`
	ResponsesCached int64   `json:"responses_cached"`
}

// MigrationSummary aggregates the data-movement cost of the incremental
// path over the run.
type MigrationSummary struct {
	Repartitions int `json:"repartitions"`
	ColdStarts   int `json:"cold_starts"`
	// TopologyMutations counts the successful topology-mutation
	// repartitions among Repartitions (schema /3).
	TopologyMutations int     `json:"topology_mutations"`
	TotalVertices     int64   `json:"total_vertices"`
	MeanFraction      float64 `json:"mean_fraction"`
	MaxFraction       float64 `json:"max_fraction"`
}

// Report is the machine-readable outcome of one Run — the record written
// to BENCH_service.json. Field set changes are breaking: the golden shape
// is pinned by the loadgen tests, and CI archives one report per commit.
type Report struct {
	Schema      string  `json:"schema"`
	Profile     Profile `json:"profile"`
	TraceDigest string  `json:"trace_digest"`
	WallSeconds float64 `json:"wall_seconds"`

	Requests      RequestCounts             `json:"requests"`
	ThroughputRPS float64                   `json:"throughput_rps"`
	LatencyMS     LatencySummary            `json:"latency_ms"`
	LatencyByKind map[string]LatencySummary `json:"latency_by_kind_ms"`

	Cache     CacheSummary     `json:"cache"`
	ShedRate  float64          `json:"shed_rate"`
	Migration MigrationSummary `json:"migration"`

	Certification CertSummary `json:"certification"`

	// CapacityRPS is the max sustainable request rate the capacity search
	// found (schema /4; zero when the run included no capacity search).
	CapacityRPS float64 `json:"capacity_rps,omitempty"`
	// CapacityP99BoundMS echoes the search's sustainability bound.
	CapacityP99BoundMS float64 `json:"capacity_p99_bound_ms,omitempty"`
	// CapacitySweep lists every rate step the search measured, sweep
	// order then refinement order.
	CapacitySweep []RateStep `json:"capacity_sweep,omitempty"`

	// Server is the absolute post-run counter snapshot (includes setup).
	Server service.StatsResponse `json:"server"`
}

// AttachCapacity merges a capacity-search outcome into the report.
func (r *Report) AttachCapacity(c *CapacityResult) {
	r.CapacityRPS = c.CapacityRPS
	r.CapacityP99BoundMS = c.P99BoundMS
	r.CapacitySweep = c.Sweep
}

// percentile reads the q-quantile (0 ≤ q ≤ 1) off a sorted slice with
// nearest-rank interpolation.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := q * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summarizeLatency digests one latency population (milliseconds).
func summarizeLatency(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return LatencySummary{
		Count:  len(sorted),
		MeanMS: sum / float64(len(sorted)),
		P50MS:  percentile(sorted, 0.50),
		P90MS:  percentile(sorted, 0.90),
		P95MS:  percentile(sorted, 0.95),
		P99MS:  percentile(sorted, 0.99),
		P999MS: percentile(sorted, 0.999),
		MaxMS:  sorted[len(sorted)-1],
	}
}

// report assembles the Report from the run observations and the serving
// counter deltas.
func (h *Harness) report(rec *recorder, pre, post service.StatsResponse, wall time.Duration) *Report {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	var all []float64
	byKind := make(map[string]LatencySummary, len(rec.durations))
	for kind, ms := range rec.durations {
		all = append(all, ms...)
		byKind[string(kind)] = summarizeLatency(ms)
	}
	counts := RequestCounts{
		OK:        rec.ok,
		Shed:      rec.shed,
		Cancelled: rec.cancelled,
		Failed:    rec.failed,
		Total:     rec.ok + rec.shed + rec.cancelled + rec.failed,
		ByKind:    make(map[string]int, len(rec.byKind)),
	}
	for kind, n := range rec.byKind {
		counts.ByKind[string(kind)] = n
	}

	hits := post.CacheHits - pre.CacheHits
	misses := post.CacheMisses - pre.CacheMisses
	cache := CacheSummary{
		Hits:            hits,
		Misses:          misses,
		Evictions:       post.CacheEvictions - pre.CacheEvictions,
		Coalesced:       post.Coalesced - pre.Coalesced,
		PipelineRuns:    post.PipelineRuns - pre.PipelineRuns,
		ResponsesCached: rec.cached,
	}
	if hits+misses > 0 {
		cache.HitRate = float64(hits) / float64(hits+misses)
	}

	mig := MigrationSummary{
		Repartitions:      rec.repartitions,
		ColdStarts:        rec.coldStarts,
		TopologyMutations: rec.topoMuts,
		TotalVertices:     rec.migVertices,
		MaxFraction:       rec.migFracMax,
	}
	if rec.repartitions > 0 {
		mig.MeanFraction = rec.migFracSum / float64(rec.repartitions)
	}

	r := &Report{
		Schema:        ReportSchema,
		Profile:       h.prof,
		TraceDigest:   TraceDigest(h.trace),
		WallSeconds:   wall.Seconds(),
		Requests:      counts,
		LatencyMS:     summarizeLatency(all),
		LatencyByKind: byKind,
		Cache:         cache,
		Migration:     mig,
		Certification: h.cert.summary(),
		Server:        post,
	}
	if wall > 0 {
		r.ThroughputRPS = float64(counts.Total) / wall.Seconds()
	}
	if counts.Total > 0 {
		r.ShedRate = float64(counts.Shed) / float64(counts.Total)
	}
	return r
}

// WriteFile writes the report as indented JSON (stable key order: struct
// fields in declaration order, map keys sorted by encoding/json).
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encoding report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders the human-readable digest cmd/loadgen prints.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile %s (seed %d, %s): %d requests in %.2fs — %.1f req/s\n",
		r.Profile.Name, r.Profile.Seed, r.Profile.Mode, r.Requests.Total, r.WallSeconds, r.ThroughputRPS)
	fmt.Fprintf(&sb, "  trace        %s\n", r.TraceDigest)
	fmt.Fprintf(&sb, "  outcomes     ok=%d shed=%d cancelled=%d failed=%d (shed rate %.3f)\n",
		r.Requests.OK, r.Requests.Shed, r.Requests.Cancelled, r.Requests.Failed, r.ShedRate)
	fmt.Fprintf(&sb, "  latency ms   p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		r.LatencyMS.P50MS, r.LatencyMS.P95MS, r.LatencyMS.P99MS, r.LatencyMS.MaxMS)
	fmt.Fprintf(&sb, "  cache        hit rate %.3f (%d hits / %d misses), coalesced %d, pipeline runs %d\n",
		r.Cache.HitRate, r.Cache.Hits, r.Cache.Misses, r.Cache.Coalesced, r.Cache.PipelineRuns)
	fmt.Fprintf(&sb, "  migration    %d repartitions (%d topology mutations), mean fraction %.4f, max %.4f\n",
		r.Migration.Repartitions, r.Migration.TopologyMutations, r.Migration.MeanFraction, r.Migration.MaxFraction)
	fmt.Fprintf(&sb, "  certified    %d responses checked, %d Lemma 40 certificates, max gap %.3f, scratch ratio ≤ %.3f\n",
		r.Certification.Checked, r.Certification.Certificates,
		r.Certification.MaxCertificateGap, r.Certification.MaxScratchRatio)
	if len(r.CapacitySweep) > 0 {
		fmt.Fprintf(&sb, "  capacity     %.1f req/s sustainable at p99 < %.0fms (%d rate steps)\n",
			r.CapacityRPS, r.CapacityP99BoundMS, len(r.CapacitySweep))
	}
	if r.Certification.Violations == 0 {
		fmt.Fprintf(&sb, "  violations   none\n")
	} else {
		fmt.Fprintf(&sb, "  VIOLATIONS   %d\n", r.Certification.Violations)
		for _, s := range r.Certification.ViolationSamples {
			fmt.Fprintf(&sb, "    - %s\n", s)
		}
	}
	return sb.String()
}
