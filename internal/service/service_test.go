package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// newTestServer returns a started Server and its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req any, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

func uploadGraph(t *testing.T, url string, g *graph.Graph) UploadResponse {
	t.Helper()
	r, err := http.Post(url+"/v1/graphs", "text/plain", bytes.NewReader(graph.Marshal(g)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", r.StatusCode)
	}
	var up UploadResponse
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	return up
}

func serverStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	r, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestUploadPartitionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(20, 20, 3, 11)
	up := uploadGraph(t, ts.URL, g)
	if up.N != g.N() || up.M != g.M() {
		t.Fatalf("upload echoed n=%d m=%d, want %d %d", up.N, up.M, g.N(), g.M())
	}
	if !strings.HasPrefix(up.GraphID, "g-") {
		t.Fatalf("graph id %q lacks the content-hash prefix", up.GraphID)
	}

	var resp PartitionResponse
	code := postJSON(t, ts.URL+"/v1/partition",
		PartitionRequest{GraphID: up.GraphID, K: 8, IncludeColoring: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	if resp.Cached {
		t.Fatal("first request reported cached")
	}
	if len(resp.Coloring) != g.N() {
		t.Fatalf("coloring length %d, want %d", len(resp.Coloring), g.N())
	}
	if err := graph.CheckColoring(resp.Coloring, 8); err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.StrictlyBalanced {
		t.Fatal("served coloring not strictly balanced")
	}
	if resp.Diag.SplitterCalls == 0 {
		t.Fatal("fresh run reported zero oracle calls")
	}
	// Identical uploads dedupe to the same identity.
	if again := uploadGraph(t, ts.URL, g); again.GraphID != up.GraphID {
		t.Fatal("re-upload produced a different graph id")
	}
}

func TestPartitionCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(16, 16, 3, 3)
	up := uploadGraph(t, ts.URL, g)

	req := PartitionRequest{GraphID: up.GraphID, K: 4, IncludeColoring: true}
	var first, second PartitionResponse
	postJSON(t, ts.URL+"/v1/partition", req, &first)
	runsAfterFirst := serverStats(t, ts.URL).PipelineRuns

	postJSON(t, ts.URL+"/v1/partition", req, &second)
	if !second.Cached {
		t.Fatal("identical repeat request was not a cache hit")
	}
	// A cache hit must not re-run the pipeline: the run counter is frozen
	// and the diagnostics are the original run's, byte for byte.
	if runs := serverStats(t, ts.URL).PipelineRuns; runs != runsAfterFirst {
		t.Fatalf("pipeline ran again on a cache hit (%d → %d)", runsAfterFirst, runs)
	}
	if first.Diag.SplitterCalls != second.Diag.SplitterCalls {
		t.Fatal("cache hit served different diagnostics than the original run")
	}
	for v := range first.Coloring {
		if first.Coloring[v] != second.Coloring[v] {
			t.Fatal("cache hit served a different coloring")
		}
	}
	// Inline submission of the same content also hits the same entry.
	var inline PartitionResponse
	postJSON(t, ts.URL+"/v1/partition",
		PartitionRequest{Graph: string(graph.Marshal(g)), K: 4}, &inline)
	if !inline.Cached || inline.GraphID != up.GraphID {
		t.Fatal("inline submission of identical content missed the cache")
	}
}

func TestPartitionCoalescing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(32, 32, 3, 13)
	up := uploadGraph(t, ts.URL, g)

	const callers = 12
	var wg sync.WaitGroup
	resps := make([]PartitionResponse, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code := postJSON(t, ts.URL+"/v1/partition",
				PartitionRequest{GraphID: up.GraphID, K: 16}, &resps[i])
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	for i := range resps {
		if !resps[i].Stats.StrictlyBalanced {
			t.Fatalf("caller %d: not strictly balanced", i)
		}
	}
	st := serverStats(t, ts.URL)
	// Every caller either led the one pipeline run, shared it (coalesced),
	// or hit the cache after it landed. A tiny race window allows a second
	// leader, but the pipeline must never run per-request.
	if st.PipelineRuns > 2 {
		t.Fatalf("pipeline ran %d times for %d identical requests", st.PipelineRuns, callers)
	}
	if st.Coalesced+st.CacheHits < callers-2 {
		t.Fatalf("coalesced=%d hits=%d: too many independent runs", st.Coalesced, st.CacheHits)
	}
}

func TestPartitionErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 1)
	up := uploadGraph(t, ts.URL, g)

	cases := []struct {
		name string
		req  PartitionRequest
		want int
	}{
		{"missing graph", PartitionRequest{K: 4}, http.StatusBadRequest},
		{"both sources", PartitionRequest{GraphID: up.GraphID, Graph: "1 0\n1\n", K: 2}, http.StatusBadRequest},
		{"unknown id", PartitionRequest{GraphID: "g-feedfeed", K: 4}, http.StatusNotFound},
		{"k zero", PartitionRequest{GraphID: up.GraphID, K: 0}, http.StatusBadRequest},
		{"bad p", PartitionRequest{GraphID: up.GraphID, K: 2, P: 0.5}, http.StatusBadRequest},
		{"bad inline graph", PartitionRequest{Graph: "not a graph", K: 2}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+"/v1/partition", c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}

	// Malformed JSON body.
	r, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", r.StatusCode)
	}

	// Method filtering comes from the mux patterns.
	resp, err := http.Get(ts.URL + "/v1/partition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on partition: status %d", resp.StatusCode)
	}
}

func TestRepartitionColdStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(12, 12, 3, 5)
	up := uploadGraph(t, ts.URL, g)

	// No prior partition for these options: the server must fall back to a
	// full run, flag it, and report zero migration.
	var resp RepartitionResponse
	code := postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 4,
		Scale: []WeightUpdate{{V: 0, W: 2}},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.ColdStart {
		t.Fatal("cold start not flagged")
	}
	if resp.Migration.Vertices != 0 {
		t.Fatal("cold start reported nonzero migration")
	}
	if !resp.Stats.StrictlyBalanced {
		t.Fatal("cold-start result not strictly balanced")
	}
	if resp.GraphID == up.GraphID {
		t.Fatal("reweighted instance kept the base identity")
	}
}

func TestRepartitionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 2)
	up := uploadGraph(t, ts.URL, g)

	cases := []struct {
		name string
		req  RepartitionRequest
		want int
	}{
		{"missing id", RepartitionRequest{K: 4}, http.StatusBadRequest},
		{"unknown id", RepartitionRequest{GraphID: "g-00", K: 4}, http.StatusNotFound},
		{"oob set", RepartitionRequest{GraphID: up.GraphID, K: 4, Set: []WeightUpdate{{V: 9999, W: 1}}}, http.StatusBadRequest},
		{"negative weight", RepartitionRequest{GraphID: up.GraphID, K: 4, Set: []WeightUpdate{{V: 0, W: -1}}}, http.StatusBadRequest},
		{"short weights", RepartitionRequest{GraphID: up.GraphID, K: 4, Weights: []float64{1, 2}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+"/v1/repartition", c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
}

func TestRepartitionRepeatIsCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(14, 14, 3, 8)
	up := uploadGraph(t, ts.URL, g)
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 4}, &PartitionResponse{})

	req := RepartitionRequest{GraphID: up.GraphID, K: 4,
		Scale: []WeightUpdate{{V: 3, W: 2}, {V: 40, W: 0.5}}}
	var first, second RepartitionResponse
	postJSON(t, ts.URL+"/v1/repartition", req, &first)
	runs := serverStats(t, ts.URL).PipelineRuns
	postJSON(t, ts.URL+"/v1/repartition", req, &second)
	if !second.Cached {
		t.Fatal("identical repeated repartition did not hit the cache")
	}
	if got := serverStats(t, ts.URL).PipelineRuns; got != runs {
		t.Fatalf("repeat repartition re-ran the pipeline (%d → %d)", runs, got)
	}
	if first.GraphID != second.GraphID {
		t.Fatal("identical deltas produced different derived graph ids")
	}
	// Migration is measured against the session's pre-request coloring.
	// The first repartition moved the session onto the drifted result, so
	// the cached repeat implies no further data movement at all.
	if second.Migration.Vertices != 0 || second.Migration.Weight != 0 {
		t.Fatalf("cached repeat reported nonzero migration: %+v", second.Migration)
	}
}

// Every weight delta is relative to the named base, never to the weights
// the base session absorbed from an earlier delta: the answer colors the
// base with only this request's delta applied.
func TestRepartitionDeltasStayBaseRelative(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(14, 14, 3, 8)
	up := uploadGraph(t, ts.URL, g)
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 4}, &PartitionResponse{})
	for i, scale := range []WeightUpdate{{V: 3, W: 2}, {V: 40, W: 3}} {
		var resp RepartitionResponse
		req := RepartitionRequest{GraphID: up.GraphID, K: 4, Scale: []WeightUpdate{scale}, IncludeColoring: true}
		if code := postJSON(t, ts.URL+"/v1/repartition", req, &resp); code != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, code)
		}
		want := g.Clone()
		want.Weight[scale.V] *= scale.W
		if exp := statsWire(graph.Stats(want, resp.Coloring, 4)); !reflect.DeepEqual(resp.Stats, exp) {
			t.Fatalf("delta %d: stats %+v, want those of the base with only this delta applied %+v", i, resp.Stats, exp)
		}
	}
}

func TestUploadRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// +Inf parses as a float and passes graph.Validate, but would make the
	// response stats unencodable — the wire layer must reject it.
	r, err := http.Post(ts.URL+"/v1/graphs", "text/plain",
		strings.NewReader("2 1\n+Inf\n1\n0 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("Inf weight upload: status %d, want 400", r.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/partition",
		PartitionRequest{Graph: "1 0\n+Inf\n", K: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("Inf weight inline: status %d, want 400", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
}

func TestGraphStoreEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{GraphStoreSize: 2})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		up := uploadGraph(t, ts.URL, workload.ClimateMesh(6, 6, 2, seed))
		ids = append(ids, up.GraphID)
	}
	// The first upload is now evicted; naming it must 404 with a hint.
	code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: ids[0], K: 2}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted graph: status %d, want 404", code)
	}
	if got := serverStats(t, ts.URL).GraphsStored; got != 2 {
		t.Fatalf("graphs stored = %d, want 2", got)
	}
}

// A repartition naming an evicted base answers 404 whatever its delta
// kind, even when an identical earlier delta's derived graph is still
// stored.
func TestRepartitionEvictedBaseIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{GraphStoreSize: 2})
	a := uploadGraph(t, ts.URL, workload.ClimateMesh(8, 8, 2, 1))
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: a.GraphID, K: 2}, nil); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	scale := RepartitionRequest{GraphID: a.GraphID, K: 2, Scale: []WeightUpdate{{V: 0, W: 2}}}
	if code := postJSON(t, ts.URL+"/v1/repartition", scale, nil); code != http.StatusOK {
		t.Fatalf("scale delta status %d", code)
	}
	// The store now holds A's derived graph and B; A itself is evicted.
	uploadGraph(t, ts.URL, workload.ClimateMesh(8, 8, 2, 2))

	topo := RepartitionRequest{GraphID: a.GraphID, K: 2,
		Topology: &TopologyWire{RemoveEdges: []EdgeRefWire{{U: 0, V: 1}}}}
	for name, req := range map[string]RepartitionRequest{"repeated scale": scale, "topology": topo} {
		if code := postJSON(t, ts.URL+"/v1/repartition", req, nil); code != http.StatusNotFound {
			t.Errorf("%s delta against the evicted base: status %d, want 404", name, code)
		}
	}
}

func TestResultCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1})
	g1 := workload.ClimateMesh(10, 10, 2, 1)
	g2 := workload.ClimateMesh(10, 10, 2, 2)
	up1 := uploadGraph(t, ts.URL, g1)
	up2 := uploadGraph(t, ts.URL, g2)

	var resp PartitionResponse
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up1.GraphID, K: 4}, &resp)
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up2.GraphID, K: 4}, &resp)
	// g1's entry was evicted by g2's: the repeat is a fresh run.
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up1.GraphID, K: 4}, &resp)
	if resp.Cached {
		t.Fatal("evicted entry reported as cache hit")
	}
	st := serverStats(t, ts.URL)
	if st.CacheEvictions == 0 {
		t.Fatal("no evictions recorded at capacity 1")
	}
	if st.PipelineRuns != 3 {
		t.Fatalf("pipeline runs = %d, want 3", st.PipelineRuns)
	}
}

func TestStatsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 9)
	up := uploadGraph(t, ts.URL, g)
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 4}, &PartitionResponse{})
	st := serverStats(t, ts.URL)
	if st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want exactly one run", st)
	}
	if st.CacheMisses == 0 {
		t.Fatal("first request did not register a cache miss")
	}
	if st.GraphsStored != 1 {
		t.Fatalf("graphs stored = %d, want 1", st.GraphsStored)
	}
}

// The request-accounting hooks: an injected deterministic clock must
// drive the busy-time counter, and served/shed counts must cover exactly
// the work endpoints (stats and healthz stay unobserved).
func TestStatsRequestAccounting(t *testing.T) {
	var now atomic.Int64 // fake nanosecond clock, advanced per call
	clock := func() time.Time {
		return time.Unix(0, now.Add(1_000_000)) // +1ms per observation
	}
	s, ts := newTestServer(t, Config{Clock: clock})
	g := workload.ClimateMesh(6, 6, 2, 4)
	up := uploadGraph(t, ts.URL, g)
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 3}, &PartitionResponse{})
	_ = serverStats(t, ts.URL) // must not count itself

	st := s.Stats()
	if st.RequestsServed != 2 {
		t.Fatalf("requests served = %d, want 2 (upload + partition)", st.RequestsServed)
	}
	if st.RequestsShed != 0 {
		t.Fatalf("requests shed = %d, want 0", st.RequestsShed)
	}
	// Each instrumented request reads the clock twice, so with the +1ms
	// fake the busy time is deterministic: exactly 1ms per request.
	if st.BusyNS != 2*int64(time.Millisecond) {
		t.Fatalf("busy ns = %d, want %d (deterministic clock)", st.BusyNS, 2*time.Millisecond)
	}
	// The wire mirrors the programmatic snapshot.
	wire := serverStats(t, ts.URL)
	if wire.RequestsServed < st.RequestsServed || wire.BusyNS < st.BusyNS {
		t.Fatalf("wire stats %+v behind programmatic stats %+v", wire, st)
	}
}

// A shed request (503 at admission) must show up in the shed counter.
func TestStatsShedAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRuns: 1})
	gs := []*graph.Graph{
		workload.ClimateMesh(10, 10, 2, 1),
		workload.ClimateMesh(10, 10, 2, 2),
		workload.ClimateMesh(10, 10, 2, 3),
	}
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			code := postJSON(t, ts.URL+"/v1/partition",
				PartitionRequest{Graph: string(graph.Marshal(g)), K: 2, NoCache: true}, nil)
			if code == http.StatusServiceUnavailable {
				shed.Add(1)
			}
		}(i, g)
	}
	wg.Wait()
	if got := s.Stats().RequestsShed; got != shed.Load() {
		t.Fatalf("server counted %d shed requests, clients saw %d", got, shed.Load())
	}
}

// gateObserver holds the first pipeline stage any run enters until
// release is closed, keeping that run's slot taken.
type gateObserver struct {
	repro.NopObserver
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (o *gateObserver) StageEnter(repro.StageName) {
	o.once.Do(func() {
		close(o.entered)
		<-o.release
	})
}

// missBodies returns a partition and a repartition request against id
// that miss the cache of a server which has only partitioned id at k=2.
func missBodies(id string) map[string]string {
	return map[string]string{
		"/v1/partition":   fmt.Sprintf(`{"graph_id":%q,"k":3}`, id),
		"/v1/repartition": fmt.Sprintf(`{"graph_id":%q,"k":2,"scale":[{"v":0,"w":2}]}`, id),
	}
}

// With the one run slot held, a distinct partition miss and a repartition
// miss are both shed with 503 and counted in requests_shed; once the run
// finishes, both succeed.
func TestRunSlotShedsPartitionAndRepartitionMisses(t *testing.T) {
	obs := &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{MaxRuns: 1, Observer: obs})
	var released sync.Once
	release := func() { released.Do(func() { close(obs.release) }) }
	defer release() // a failed check must not leave the held run blocked
	id := uploadInProcess(t, s, workload.ClimateMesh(8, 8, 2, 1))

	held := make(chan int, 1)
	go func() {
		held <- do(s, http.MethodPost, "/v1/partition", fmt.Sprintf(`{"graph_id":%q,"k":2}`, id)).Code
	}()
	select {
	case <-obs.entered:
	case code := <-held:
		t.Fatalf("held partition answered %d before its run entered a stage", code)
	}

	misses := missBodies(id)
	for path, body := range misses {
		rec := do(s, http.MethodPost, path, body)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), errQueueFull.Error()) {
			t.Fatalf("%s with the slot held: %d %s, want 503 %q", path, rec.Code, rec.Body, errQueueFull)
		}
	}
	if got := s.Stats().RequestsShed; got != 2 {
		t.Fatalf("requests_shed = %d, want 2", got)
	}

	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held partition status %d", code)
	}
	for path, body := range misses {
		if rec := do(s, http.MethodPost, path, body); rec.Code != http.StatusOK {
			t.Fatalf("%s after release: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// After Close every cache miss, partition or repartition, answers 503
// errShuttingDown, while a cached partition is still served.
func TestCloseRefusesMisses(t *testing.T) {
	s := New(Config{})
	id := uploadInProcess(t, s, workload.ClimateMesh(8, 8, 2, 2))
	cached := PartitionRequest{GraphID: id, K: 2}
	if code := doJSON(t, s, "/v1/partition", cached, nil); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	s.Close()

	var pr PartitionResponse
	if code := doJSON(t, s, "/v1/partition", cached, &pr); code != http.StatusOK || !pr.Cached {
		t.Fatalf("cached partition after Close: status %d cached=%t", code, pr.Cached)
	}
	for path, body := range missBodies(id) {
		rec := do(s, http.MethodPost, path, body)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), errShuttingDown.Error()) {
			t.Fatalf("%s miss after Close: %d %s, want 503 %q", path, rec.Code, rec.Body, errShuttingDown)
		}
	}
}

// A served partition is the coloring Engine.PartitionWithOptions computes
// at Parallelism 1, whatever the server's worker pool.
func TestServedColoringMatchesSequentialRun(t *testing.T) {
	s := New(Config{Parallelism: 2})
	g := workload.ClimateMesh(16, 16, 3, 5)
	id := uploadInProcess(t, s, g)
	var pr PartitionResponse
	if code := doJSON(t, s, "/v1/partition", PartitionRequest{GraphID: id, K: 8, IncludeColoring: true}, &pr); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	solo, err := repro.NewEngine().PartitionWithOptions(context.Background(), g, repro.Options{K: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Coloring, solo.Coloring) {
		t.Fatal("served coloring differs from the sequential run")
	}
}

// panicOnceObserver panics in the first stage any run enters.
type panicOnceObserver struct {
	repro.NopObserver
	fired atomic.Bool
}

func (o *panicOnceObserver) StageEnter(repro.StageName) {
	if !o.fired.Swap(true) {
		panic("observer panic")
	}
}

// A run that panics on its handler's goroutine (where net/http recovers
// it) gives back its run slot and its flight key: with one slot, the
// identical retry runs and answers 200.
func TestPanickingRunReleasesSlotAndKey(t *testing.T) {
	// The timeout turns a retry stranded on a dead flight into a 504.
	s := New(Config{MaxRuns: 1, Observer: &panicOnceObserver{}, RequestTimeout: 5 * time.Second})
	id := uploadInProcess(t, s, workload.ClimateMesh(8, 8, 2, 3))
	req := PartitionRequest{GraphID: id, K: 2}
	func() {
		defer func() {
			if r := recover(); r != "observer panic" {
				t.Fatalf("first run recovered %v, want the observer's panic", r)
			}
		}()
		doJSON(t, s, "/v1/partition", req, nil)
	}()
	if code := doJSON(t, s, "/v1/partition", req, nil); code != http.StatusOK {
		t.Fatalf("retry after the panic: status %d", code)
	}
}
