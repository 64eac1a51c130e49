package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/workload"
)

// Restart semantics of the durable state subsystem: a server configured
// with a Store must come back warm — graphs resolvable, results cached,
// sessions resumable — with zero re-uploads after both a graceful
// shutdown and a SIGKILL-shaped crash.

// doJSON drives a handler in-process and decodes the response.
func doJSON(t *testing.T, s *Server, path string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(s, http.MethodPost, path, string(body))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return rec.Code
}

func uploadInProcess(t *testing.T, s *Server, g *graph.Graph) string {
	t.Helper()
	rec := do(s, http.MethodPost, "/v1/graphs", string(graph.Marshal(g)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body)
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	return up.GraphID
}

func openStore(t *testing.T, dir string, mode store.FsyncMode) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: mode, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// driveSession uploads a mesh and runs a partition, a weight drift and a
// topology churn against server s, returning the ids the chains handed
// out: base, drifted, churned.
func driveSession(t *testing.T, s *Server) (string, string, string) {
	t.Helper()
	g := workload.ClimateMesh(8, 8, 1, 1)
	id := uploadInProcess(t, s, g)

	var part PartitionResponse
	if code := doJSON(t, s, "/v1/partition", PartitionRequest{GraphID: id, K: 4}, &part); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	var drift RepartitionResponse
	if code := doJSON(t, s, "/v1/repartition", RepartitionRequest{
		GraphID: id, K: 4,
		Scale: []WeightUpdate{{V: 0, W: 2}, {V: 7, W: 0.5}},
	}, &drift); code != http.StatusOK {
		t.Fatalf("drift status %d", code)
	}
	var churn RepartitionResponse
	if code := doJSON(t, s, "/v1/repartition", RepartitionRequest{
		GraphID: id, K: 4,
		Topology: &TopologyWire{RemoveEdges: []EdgeRefWire{{U: 0, V: 1}}},
	}, &churn); code != http.StatusOK {
		t.Fatalf("churn status %d", code)
	}
	return id, drift.GraphID, churn.GraphID
}

// assertWarm checks the restarted server serves the pre-restart state
// without a single re-upload.
func assertWarm(t *testing.T, s2 *Server, id, driftID, churnID string) {
	t.Helper()
	st := s2.Stats()
	if st.RecoveredSessions != 2 {
		t.Errorf("recovered_sessions = %d, want 2 (drift chain + churn chain)", st.RecoveredSessions)
	}
	if st.PersistErrors != 0 {
		t.Errorf("persist_errors = %d", st.PersistErrors)
	}

	// The base result is cache-warm.
	var part PartitionResponse
	if code := doJSON(t, s2, "/v1/partition", PartitionRequest{GraphID: id, K: 4}, &part); code != http.StatusOK {
		t.Fatalf("post-restart partition status %d", code)
	}
	if !part.Cached {
		t.Error("post-restart partition should be served from the recovered cache")
	}

	// Repeating the pre-restart drift delta reproduces the same derived
	// id, served from the recovered cache.
	var drift RepartitionResponse
	if code := doJSON(t, s2, "/v1/repartition", RepartitionRequest{
		GraphID: id, K: 4,
		Scale: []WeightUpdate{{V: 0, W: 2}, {V: 7, W: 0.5}},
	}, &drift); code != http.StatusOK {
		t.Fatalf("post-restart drift status %d", code)
	}
	if drift.GraphID != driftID {
		t.Errorf("post-restart drift id %s, want %s (digest chain must survive restart)", drift.GraphID, driftID)
	}
	if !drift.Cached {
		t.Error("identical drift delta should hit the recovered cache")
	}
	if drift.ColdStart {
		t.Error("post-restart drift must not be a cold start")
	}

	// A NEW delta continues each chain warm.
	var more RepartitionResponse
	if code := doJSON(t, s2, "/v1/repartition", RepartitionRequest{
		GraphID: id, K: 4, Scale: []WeightUpdate{{V: 3, W: 4}},
	}, &more); code != http.StatusOK {
		t.Fatalf("post-restart new drift status %d", code)
	}
	if more.ColdStart {
		t.Error("recovered session must resume the drift chain warm")
	}
	var churn2 RepartitionResponse
	if code := doJSON(t, s2, "/v1/repartition", RepartitionRequest{
		GraphID: churnID, K: 4,
		Topology: &TopologyWire{RemoveEdges: []EdgeRefWire{{U: 2, V: 3}}},
	}, &churn2); code != http.StatusOK {
		t.Fatalf("post-restart churn continuation status %d", code)
	}
	if churn2.ColdStart {
		t.Error("recovered churn session must resume warm")
	}
	if churn2.PriorGraphID != churnID {
		t.Errorf("churn continuation prior %s, want %s", churn2.PriorGraphID, churnID)
	}
}

func TestPersistGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, store.FsyncBatch)
	s1 := New(Config{Store: st1})
	id, driftID, churnID := driveSession(t, s1)
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openStore(t, dir, store.FsyncBatch)
	defer st2.Close()
	if !st2.Recovery().CleanShutdown {
		t.Error("graceful close must leave a sealed log")
	}
	s2 := New(Config{Store: st2})
	defer s2.Close()
	assertWarm(t, s2, id, driftID, churnID)
}

func TestPersistCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, store.FsyncAlways)
	s1 := New(Config{Store: st1})
	id, driftID, churnID := driveSession(t, s1)
	s1.Close()
	st1.Abandon() // SIGKILL: no seal, no shutdown snapshot

	st2 := openStore(t, dir, store.FsyncAlways)
	defer st2.Close()
	ri := st2.Recovery()
	if ri.CleanShutdown {
		t.Error("a crash must not read as a clean shutdown")
	}
	if ri.Replayed == 0 {
		t.Errorf("recovery = %+v, want a replayed log tail", ri)
	}
	s2 := New(Config{Store: st2})
	defer s2.Close()
	assertWarm(t, s2, id, driftID, churnID)
	// Crash recovery snapshots immediately, so a second crash before any
	// traffic still boots from a snapshot.
	if s2.Stats().Snapshots == 0 {
		t.Error("post-recovery snapshot missing from stats")
	}
}

// TestPersistStatsWire pins the new stats fields on the wire: the CI
// smoke greps for them by name.
func TestPersistStatsWire(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.FsyncBatch)
	defer st.Close()
	s := New(Config{Store: st})
	defer s.Close()
	driveSession(t, s)

	rec := do(s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"log_records", "snapshots", "recovered_sessions", "persist_errors"} {
		if _, ok := m[field]; !ok {
			t.Errorf("stats wire is missing %q", field)
		}
	}
	if lr, _ := m["log_records"].(float64); lr < 4 {
		t.Errorf("log_records = %v, want ≥ 4 (upload + result + 2 reparts)", m["log_records"])
	}
}

// TestPersistOffIsUnchanged: without a Store every hook is a no-op and
// the stats fields stay zero — the default serving path is untouched.
func TestPersistOffIsUnchanged(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	driveSession(t, s)
	st := s.Stats()
	if st.LogRecords != 0 || st.Snapshots != 0 || st.RecoveredSessions != 0 || st.PersistErrors != 0 {
		t.Errorf("persistence counters must stay zero without a store: %+v", st)
	}
}
