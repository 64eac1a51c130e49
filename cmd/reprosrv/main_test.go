package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/workload"
)

// polishTol bounds how much worse the incremental /v1/repartition result
// may be than a from-scratch pipeline run on the same reweighted instance.
// The resumed path skips the Proposition 7 recursion and relies on the
// polish pass to re-shrink the boundary; empirically it lands at or below
// the scratch boundary (the prior coloring is a warm start), so 1.25×
// leaves room only for polish-stage noise.
const polishTol = 1.25

// TestServeClimatePartitionEndToEnd is the acceptance flow of the serving
// subsystem: upload a 96×96 climate mesh over HTTP, partition it into
// k=16 strictly balanced classes, observe that an identical repeat is a
// cache hit (pipeline not re-run), then push a day/night weight drift
// through /v1/repartition and check migration volume and boundary quality
// against a from-scratch run.
func TestServeClimatePartitionEndToEnd(t *testing.T) {
	const rows, cols, k = 96, 96, 16
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	g := workload.ClimateMesh(rows, cols, 4, 42)

	// Upload.
	r, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(graph.Marshal(g)))
	if err != nil {
		t.Fatal(err)
	}
	var up service.UploadResponse
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if up.N != rows*cols {
		t.Fatalf("uploaded n = %d, want %d", up.N, rows*cols)
	}

	post := func(path string, req, resp any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}

	// Partition: valid, strictly balanced k=16 coloring.
	preq := service.PartitionRequest{GraphID: up.GraphID, K: k, IncludeColoring: true}
	var first service.PartitionResponse
	post("/v1/partition", preq, &first)
	if first.Cached {
		t.Fatal("first request claimed to be cached")
	}
	if len(first.Coloring) != g.N() {
		t.Fatalf("coloring length %d, want %d", len(first.Coloring), g.N())
	}
	if err := graph.CheckColoring(first.Coloring, k); err != nil {
		t.Fatal(err)
	}
	if !first.Stats.StrictlyBalanced {
		t.Fatalf("served coloring not strictly balanced (max dev %v > bound %v)",
			first.Stats.MaxWeightDeviation, first.Stats.StrictBound)
	}
	if first.Diag.SplitterCalls == 0 {
		t.Fatal("fresh pipeline run reported zero splitter calls")
	}

	// Repeat: cache hit, pipeline not re-run. The SplitterCalls count is
	// the original run's verbatim, and the server-side run counter is
	// frozen.
	var second service.PartitionResponse
	post("/v1/partition", preq, &second)
	if !second.Cached {
		t.Fatal("identical repeat was not a cache hit")
	}
	if second.Diag.SplitterCalls != first.Diag.SplitterCalls {
		t.Fatalf("cache hit changed SplitterCalls: %d → %d",
			first.Diag.SplitterCalls, second.Diag.SplitterCalls)
	}
	var st service.StatsResponse
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.PipelineRuns != 1 {
		t.Fatalf("pipeline ran %d times for two identical requests, want 1", st.PipelineRuns)
	}
	if st.CacheHits == 0 {
		t.Fatal("stats recorded no cache hit")
	}

	// Day/night drift: the illumination band moves, so the western half
	// gets 1.8× the load and the eastern half cools to 0.6× — the paper's
	// "tremendously depending on day-time" scenario as a sparse delta.
	scale := make([]service.WeightUpdate, 0, g.N())
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			f := 0.6
			if col < cols/2 {
				f = 1.8
			}
			scale = append(scale, service.WeightUpdate{V: int32(row*cols + col), W: f})
		}
	}
	var rep service.RepartitionResponse
	post("/v1/repartition", service.RepartitionRequest{
		GraphID: up.GraphID, K: k, Scale: scale, IncludeColoring: true,
	}, &rep)
	if rep.ColdStart {
		t.Fatal("repartition against a cached instance reported a cold start")
	}
	if rep.GraphID == up.GraphID {
		t.Fatal("reweighted instance kept the base graph id")
	}
	if err := graph.CheckColoring(rep.Coloring, k); err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.StrictlyBalanced {
		t.Fatal("repartitioned coloring not strictly balanced")
	}
	// The drift moved half the load, so some migration is expected — but an
	// incremental path must not repaint the world.
	if rep.Migration.Vertices == 0 {
		t.Fatal("a drift of this size should migrate at least one vertex")
	}
	if rep.Migration.Vertices >= g.N()/2 {
		t.Fatalf("migrated %d of %d vertices — not incremental", rep.Migration.Vertices, g.N())
	}
	if rep.Migration.Fraction <= 0 || rep.Migration.Fraction >= 1 {
		t.Fatalf("migration fraction %v out of (0, 1)", rep.Migration.Fraction)
	}

	// Boundary quality: no worse than a from-scratch run on the same
	// reweighted instance by more than the polish-stage tolerance.
	h := g.Clone()
	for _, u := range scale {
		h.Weight[u.V] *= u.W
	}
	scratch, err := repro.NewEngine().PartitionWithOptions(context.Background(), h, repro.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.MaxBoundary > polishTol*scratch.Stats.MaxBoundary {
		t.Fatalf("repartitioned boundary %v exceeds %v× the from-scratch %v",
			rep.Stats.MaxBoundary, polishTol, scratch.Stats.MaxBoundary)
	}
	// And the incremental run is observably cheaper in oracle work.
	if rep.Diag.SplitterCalls >= first.Diag.SplitterCalls {
		t.Fatalf("repartition made %d oracle calls, full run %d — no saving",
			rep.Diag.SplitterCalls, first.Diag.SplitterCalls)
	}

	// The reweighted instance is cached under its own identity: asking for
	// it again is a cache hit, enabling drift chains.
	var chained service.PartitionResponse
	post("/v1/partition", service.PartitionRequest{GraphID: rep.GraphID, K: k}, &chained)
	if !chained.Cached {
		t.Fatal("repartition result was not cached under the new graph id")
	}

	// The loaded server's /metrics scrape shows per-stage pipeline
	// histograms and every serving counter (the observability acceptance
	// criterion: Prometheus text format, stage histograms populated by the
	// runs above, counters agreeing with /v1/stats).
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	metricsText := string(mbody)
	for _, stage := range srv.StageNames() {
		line := `repro_stage_duration_seconds_count{stage="` + stage + `"}`
		if !strings.Contains(metricsText, line) {
			t.Fatalf("/metrics missing the %s stage histogram:\n%s", stage, metricsText)
		}
	}
	for _, want := range []string{
		"repro_stage_duration_seconds_bucket{",
		`repro_request_duration_seconds_count{endpoint="partition"}`,
		`repro_request_duration_seconds_count{endpoint="repartition"}`,
		"repro_cache_hits_total",
		"repro_cache_misses_total",
		"repro_pipeline_runs_total",
		"repro_requests_served_total",
		"repro_requests_shed_total",
		"repro_coalesced_total",
		"repro_sessions",
	} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// Counter values agree with the stats surface they mirror: both read
	// the same atomics, so the scrape can never under-report what an
	// earlier /v1/stats saw.
	var scrapedHits float64
	for _, line := range strings.Split(metricsText, "\n") {
		if v, ok := strings.CutPrefix(line, "repro_cache_hits_total "); ok {
			if _, err := fmt.Sscanf(v, "%g", &scrapedHits); err != nil {
				t.Fatalf("unparseable cache-hit sample %q: %v", line, err)
			}
		}
	}
	if int64(scrapedHits) < st.CacheHits+1 {
		t.Fatalf("/metrics cache hits %v, want at least %d (stats snapshot plus the chained hit)",
			scrapedHits, st.CacheHits+1)
	}
}

// stageRecorder is the Observer the disconnect acceptance test hangs off
// the server: it timestamps every stage event so the test can see the
// pipeline start, and later prove it stopped.
type stageRecorder struct {
	repro.NopObserver
	mu     sync.Mutex
	enters []repro.StageName
	leaves []repro.StageName
	splits int64
}

func (r *stageRecorder) StageEnter(s repro.StageName) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enters = append(r.enters, s)
}

func (r *stageRecorder) StageLeave(s repro.StageName, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leaves = append(r.leaves, s)
}

func (r *stageRecorder) OracleCall(total int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.splits = total
}

func (r *stageRecorder) snapshot() (enters, leaves int, splits int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.enters), len(r.leaves), r.splits
}

// TestClientDisconnectCancelsPipeline is the cancellation acceptance flow:
// a client starts an expensive decomposition (256×256 grid, k=16) and
// disconnects mid-run. The request context must cancel the pipeline at its
// next checkpoint — observed three ways: the server's cancelled-request
// counter increments within 100ms of the disconnect, the Observer's stage
// events stop (with every StageEnter matched by a StageLeave), and no
// cache entry exists for the abandoned key, so a retry runs fresh.
func TestClientDisconnectCancelsPipeline(t *testing.T) {
	obs := &stageRecorder{}
	srv := service.New(service.Config{Observer: obs})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	gr := grid.MustBox(256, 256)
	r, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(graph.Marshal(gr.G)))
	if err != nil {
		t.Fatal(err)
	}
	var up service.UploadResponse
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// Fire the partition request on a cancellable context and abandon it
	// once the Observer shows the pipeline has genuinely started.
	body, err := json.Marshal(service.PartitionRequest{GraphID: up.GraphID, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/partition",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if enters, _, _ := obs.snapshot(); enters > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never emitted a StageEnter")
		}
		time.Sleep(time.Millisecond)
	}

	// Disconnect. The server must notice, abort the run, and account the
	// request as cancelled within 100ms — the acceptance bar. Under the
	// race detector every pipeline scan is ~5–10× slower, so the longest
	// stretch between cancellation checkpoints (one O(|W|) pass) stretches
	// with it; the budget scales accordingly there, while the plain build
	// keeps the strict bar.
	budget := 100 * time.Millisecond
	if raceEnabled {
		budget *= 10
	}
	cancel()
	cut := time.Now()
	var observed time.Duration
	for {
		st := srv.Stats()
		if st.RequestsCancelled >= 1 {
			observed = time.Since(cut)
			break
		}
		if time.Since(cut) > 5*time.Second {
			t.Fatalf("cancelled-request counter never incremented (stats %+v)", st)
		}
		time.Sleep(time.Millisecond)
	}
	if observed > budget {
		t.Fatalf("disconnect-to-cancellation latency %v, want < %v", observed, budget)
	}
	if err := <-clientDone; err == nil {
		t.Fatal("abandoned client request unexpectedly succeeded")
	}

	// The pipeline stopped: stage events freeze (pairs balanced — a
	// cancelled stage still leaves) and the oracle-call counter goes quiet.
	entersA, leavesA, splitsA := obs.snapshot()
	time.Sleep(50 * time.Millisecond)
	entersB, leavesB, splitsB := obs.snapshot()
	if entersB != entersA || leavesB != leavesA || splitsB != splitsA {
		t.Fatalf("pipeline still running after cancellation: events %d/%d→%d/%d splits %d→%d",
			entersA, leavesA, entersB, leavesB, splitsA, splitsB)
	}
	if entersB != leavesB {
		t.Fatalf("unbalanced stage events after cancel: %d enters, %d leaves", entersB, leavesB)
	}
	if entersB >= 4 {
		t.Fatalf("all %d stages completed — nothing was cancelled", entersB)
	}

	// A cancelled run never populates the cache: the retry is not a hit
	// and completes normally.
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after cancelled run: status %d", resp.StatusCode)
	}
	var pr service.PartitionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cached {
		t.Fatal("cancelled run left a cache entry behind")
	}
	if !pr.Stats.StrictlyBalanced {
		t.Fatal("retry after cancellation produced a non-strict coloring")
	}
}
