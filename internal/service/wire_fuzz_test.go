package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Fuzz-style hardening of the HTTP/JSON wire layer, mirroring
// internal/graph/io_fuzz_test.go: the handlers must answer arbitrary
// garbage, oversized payloads, and id-wrapping deltas with an error
// status — never a panic, never an unbounded allocation, and never a 200
// whose body violates the serving contract.
//
// The handler is invoked directly (no httptest server): net/http's
// per-connection recover would otherwise swallow a handler panic, and
// these tests exist precisely to see one.

// fuzzServer returns a server with small limits so oversize paths are
// cheap to hit.
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{MaxGraphBytes: 4 << 10})
	t.Cleanup(s.Close)
	return s
}

// do invokes the handler tree in-process.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	return rec
}

// Arbitrary garbage bodies against every POST endpoint: any status is
// acceptable except a panic or a 200 (garbage must never parse as a valid
// request that succeeds).
func TestWireNeverPanicsOnGarbage(t *testing.T) {
	s := fuzzServer(t)
	rng := rand.New(rand.NewSource(41))
	alphabet := []byte(`{}[]":,0123456789.eE+-xntrufalse \n` + "\x00\x7f\xff")
	paths := []string{"/v1/graphs", "/v1/partition", "/v1/repartition"}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		path := paths[trial%len(paths)]
		rec := do(s, http.MethodPost, path, string(b))
		if rec.Code == http.StatusOK && path != "/v1/graphs" {
			t.Fatalf("garbage %q accepted with 200 on %s: %s", b, path, rec.Body.String())
		}
	}
}

// Mutation fuzz: corrupt single bytes of a valid partition request. The
// handler must never panic, and every 200 must carry a complete coloring
// for the requested k.
func TestWireMutatedPartitionRequests(t *testing.T) {
	s := fuzzServer(t)
	g := workload.ClimateMesh(6, 6, 2, 3)
	up := do(s, http.MethodPost, "/v1/graphs", string(graph.Marshal(g)))
	if up.Code != http.StatusOK {
		t.Fatalf("upload status %d", up.Code)
	}
	var ur UploadResponse
	if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(PartitionRequest{GraphID: ur.GraphID, K: 4, IncludeColoring: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), valid...)
		mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		rec := do(s, http.MethodPost, "/v1/partition", string(mut))
		if rec.Code != http.StatusOK {
			continue
		}
		var resp PartitionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with undecodable body for %q: %v", mut, err)
		}
		if resp.Coloring != nil {
			if err := graph.CheckColoring(resp.Coloring, resp.K); err != nil {
				t.Fatalf("200 with invalid coloring for %q: %v", mut, err)
			}
		}
	}
}

// Oversized payloads: raw uploads, inline graphs, and whole JSON bodies
// beyond the configured caps must be rejected with 4xx before any
// pipeline work happens.
func TestWireOversizedPayloads(t *testing.T) {
	s := fuzzServer(t)
	big := strings.Repeat("#", int(s.cfg.MaxGraphBytes)+64)

	if rec := do(s, http.MethodPost, "/v1/graphs", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", rec.Code)
	}
	inline, err := json.Marshal(PartitionRequest{Graph: big, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(s, http.MethodPost, "/v1/partition", string(inline)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized inline graph: status %d, want 413", rec.Code)
	}
	// A JSON body past the MaxBytesReader cap dies during decode: 400.
	huge := `{"k":2,"graph_id":"` + strings.Repeat("a", int(s.maxJSONBody())) + `"}`
	if rec := do(s, http.MethodPost, "/v1/partition", huge); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized JSON body: status %d, want 400", rec.Code)
	}
	// A header claiming gigantic n on a tiny body must be rejected by the
	// parse guard, not alloc-bombed.
	if rec := do(s, http.MethodPost, "/v1/graphs", "999999999 0\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("absurd header: status %d, want 400", rec.Code)
	}
}

// Id wrap and overflow in repartition deltas: vertex ids at and beyond
// int32 extremes must come back 400, never index out of range or wrap
// into a valid vertex.
func TestWireRepartitionIDWrap(t *testing.T) {
	s := fuzzServer(t)
	g := workload.ClimateMesh(5, 5, 2, 9)
	up := do(s, http.MethodPost, "/v1/graphs", string(graph.Marshal(g)))
	var ur UploadResponse
	if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	// Warm a prior so a surviving bad delta would actually run.
	preq, err := json.Marshal(PartitionRequest{GraphID: ur.GraphID, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(s, http.MethodPost, "/v1/partition", string(preq)); rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d", rec.Code)
	}

	ids := []int64{-1, int64(g.N()), math.MaxInt32, math.MinInt32,
		math.MaxInt32 + 1, math.MaxInt64, math.MinInt64}
	for _, field := range []string{"set", "scale"} {
		for _, id := range ids {
			body := fmt.Sprintf(`{"graph_id":%q,"k":3,%q:[{"v":%d,"w":2}]}`, ur.GraphID, field, id)
			rec := do(s, http.MethodPost, "/v1/repartition", body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s with v=%d: status %d, want 400 (%s)", field, id, rec.Code, rec.Body.String())
			}
		}
	}
	// NaN/Inf weights smuggled via JSON numbers are impossible (JSON has
	// no NaN literal), but extreme magnitudes must still be either
	// accepted with finite stats or rejected — never panic.
	for _, w := range []string{"1e308", "-0", "0", "1e-323"} {
		body := fmt.Sprintf(`{"graph_id":%q,"k":3,"set":[{"v":0,"w":%s}]}`, ur.GraphID, w)
		rec := do(s, http.MethodPost, "/v1/repartition", body)
		if rec.Code == http.StatusOK {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("set w=%s: 200 with invalid JSON body", w)
			}
		}
	}
}

// Weight-vector length confusion: a full Weights replacement of the wrong
// length, including one long enough to cover derived instances of other
// sizes, must be a 400.
func TestWireRepartitionWeightsLength(t *testing.T) {
	s := fuzzServer(t)
	g := workload.ClimateMesh(4, 4, 2, 1)
	up := do(s, http.MethodPost, "/v1/graphs", string(graph.Marshal(g)))
	var ur UploadResponse
	if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, g.N() - 1, g.N() + 1, 4 * g.N()} {
		if n < 0 {
			continue
		}
		w := bytes.TrimRight(bytes.Repeat([]byte("1,"), n), ",")
		body := fmt.Sprintf(`{"graph_id":%q,"k":2,"weights":[%s]}`, ur.GraphID, w)
		rec := do(s, http.MethodPost, "/v1/repartition", body)
		if n == g.N() {
			continue // the one valid length; outcome depends on priors
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("weights length %d: status %d, want 400", n, rec.Code)
		}
	}
}

// Stats/metrics wire hardening for the stage-summary fields: after
// arbitrary interleavings of valid and garbage work requests, GET
// /v1/stats must stay decodable with internally consistent stage
// summaries (ordered quantiles, positive counts), and GET /metrics must
// render a structurally valid exposition — never a panic on either
// read-only surface, since both now walk live histogram state.
func TestWireStatsStagesRobust(t *testing.T) {
	s := fuzzServer(t)
	g := workload.ClimateMesh(6, 6, 2, 7)
	up := do(s, http.MethodPost, "/v1/graphs", string(graph.Marshal(g)))
	var ur UploadResponse
	if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	valid, err := json.Marshal(PartitionRequest{GraphID: ur.GraphID, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		switch rng.Intn(3) {
		case 0:
			do(s, http.MethodPost, "/v1/partition", string(valid))
		case 1:
			do(s, http.MethodPost, "/v1/repartition",
				fmt.Sprintf(`{"graph_id":%q,"k":3,"scale":[{"v":%d,"w":%g}]}`,
					ur.GraphID, rng.Intn(2*g.N())-g.N(), 0.5+rng.Float64()))
		default:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			do(s, http.MethodPost, "/v1/partition", string(b))
		}

		rec := do(s, http.MethodGet, "/v1/stats", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("trial %d: /v1/stats status %d", trial, rec.Code)
		}
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("trial %d: stats undecodable: %v", trial, err)
		}
		for name, sw := range st.Stages {
			if sw.Count <= 0 || sw.TotalNS < 0 || sw.P50NS < 0 || sw.P99NS < sw.P50NS {
				t.Fatalf("trial %d: stage %q summary inconsistent: %+v", trial, name, sw)
			}
		}
		if st.PipelineRuns > 0 && len(st.Stages) == 0 {
			t.Fatalf("trial %d: %d pipeline runs but no stage summaries", trial, st.PipelineRuns)
		}

		mrec := do(s, http.MethodGet, "/metrics", "")
		if mrec.Code != http.StatusOK {
			t.Fatalf("trial %d: /metrics status %d", trial, mrec.Code)
		}
		for _, line := range strings.Split(mrec.Body.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "# ") {
				continue
			}
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("trial %d: malformed sample line %q", trial, line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("trial %d: unparseable sample %q", trial, line)
			}
		}
	}
}
