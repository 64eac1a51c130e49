package service

import (
	"net/http"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestOptionsKeyMultilevelSeparation pins the cache-key soundness rule:
// multilevel configurations are part of result identity, direct-path keys
// keep the historical format, and distinct raw configs get distinct keys.
func TestOptionsKeyMultilevelSeparation(t *testing.T) {
	direct := OptionsKey(repro.Options{K: 8})
	if direct != "k8;p2;bbfalse;shfalse;psfalse;pofalse" {
		t.Fatalf("direct key format changed: %s", direct)
	}
	ml := OptionsKey(repro.Options{K: 8, Multilevel: &repro.Multilevel{}})
	if ml == direct {
		t.Fatal("multilevel and direct options share a cache key")
	}
	ml2 := OptionsKey(repro.Options{K: 8, Multilevel: &repro.Multilevel{MinVertices: 64}})
	if ml2 == ml {
		t.Fatal("distinct multilevel configs share a cache key")
	}
	// Parallelism still never splits keys.
	if got := OptionsKey(repro.Options{K: 8, Parallelism: 7, Multilevel: &repro.Multilevel{}}); got != ml {
		t.Fatalf("parallelism leaked into the multilevel key: %s vs %s", got, ml)
	}
}

// TestPartitionMultilevelEndToEnd drives the wire: a multilevel partition
// answers 200 with multilevel diagnostics, is cached under its own key
// (the direct request for the same graph is a miss, not a hit), and the
// identical multilevel repeat hits.
func TestPartitionMultilevelEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(40, 40, 3, 1)
	up := uploadGraph(t, ts.URL, g)

	mlReq := PartitionRequest{
		GraphID: up.GraphID, K: 8,
		Multilevel:      &MultilevelWire{MinVertices: 128},
		IncludeColoring: true,
	}
	var resp PartitionResponse
	if code := postJSON(t, ts.URL+"/v1/partition", mlReq, &resp); code != http.StatusOK {
		t.Fatalf("multilevel partition status %d", code)
	}
	if resp.Cached {
		t.Fatal("first multilevel request reported cached")
	}
	if resp.Diag.Levels == 0 || resp.Diag.CoarsenNS == 0 {
		t.Fatalf("multilevel response carries no coarsening diagnostics: %+v", resp.Diag)
	}
	if !resp.Stats.StrictlyBalanced {
		t.Fatal("multilevel response not strictly balanced")
	}

	// The direct request must not be served from the multilevel entry.
	var direct PartitionResponse
	postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 8}, &direct)
	if direct.Cached {
		t.Fatal("direct request hit the multilevel cache entry")
	}
	if direct.Diag.Levels != 0 {
		t.Fatal("direct response reports coarsening levels")
	}

	// The identical multilevel repeat is a hit.
	var repeat PartitionResponse
	postJSON(t, ts.URL+"/v1/partition", mlReq, &repeat)
	if !repeat.Cached {
		t.Fatal("identical multilevel repeat missed the cache")
	}
}

// TestPartitionMultilevelValidation pins the wire-level validation.
func TestPartitionMultilevelValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 1)
	up := uploadGraph(t, ts.URL, g)
	for _, ml := range []*MultilevelWire{
		{MinVertices: -1},
		{MaxLevels: -2},
		{MaxLevels: 65},
	} {
		code := postJSON(t, ts.URL+"/v1/partition",
			PartitionRequest{GraphID: up.GraphID, K: 4, Multilevel: ml}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("config %+v answered %d, want 400", ml, code)
		}
	}
	// cold_oracles is no longer part of the schema: strict decoding turns
	// it into a 400 instead of a silently warm-started coloring.
	retired := map[string]any{"graph_id": up.GraphID, "k": 4, "multilevel": map[string]any{"cold_oracles": true}}
	if code := postJSON(t, ts.URL+"/v1/partition", retired, nil); code != http.StatusBadRequest {
		t.Fatalf("cold_oracles answered %d, want 400", code)
	}
}

// TestRepartitionMultilevelSession drives a drift chain under a multilevel
// session: the cold start runs the multilevel pipeline, later steps resume
// incrementally (no re-coarsening), and every response stays strict.
func TestRepartitionMultilevelSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(40, 40, 3, 2)
	up := uploadGraph(t, ts.URL, g)

	w := append([]float64(nil), g.Weight...)
	for v := range w {
		if v%2 == 0 {
			w[v] *= 1.8
		}
	}
	var resp RepartitionResponse
	code := postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 8, Weights: w,
		Multilevel:      &MultilevelWire{MinVertices: 128},
		IncludeColoring: true,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("multilevel repartition status %d", code)
	}
	if !resp.ColdStart {
		t.Fatal("first multilevel repartition was not a cold start")
	}
	if resp.Diag.Levels == 0 {
		t.Fatal("cold-start multilevel repartition did not coarsen")
	}
	if !resp.Stats.StrictlyBalanced {
		t.Fatal("multilevel repartition not strictly balanced")
	}

	// Second drift resumes from the session coloring: incremental (no
	// re-coarsening), still under multilevel-scoped keys.
	w2 := append([]float64(nil), w...)
	for v := range w2 {
		if v%2 == 1 {
			w2[v] *= 1.5
		}
	}
	var next RepartitionResponse
	code = postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 8, Weights: w2,
		Multilevel: &MultilevelWire{MinVertices: 128},
	}, &next)
	if code != http.StatusOK {
		t.Fatalf("second multilevel repartition status %d", code)
	}
	if next.ColdStart {
		t.Fatal("second drift step reported cold start")
	}
	if next.Diag.Levels != 0 {
		t.Fatal("incremental resume re-coarsened")
	}
	if !next.Stats.StrictlyBalanced {
		t.Fatal("resumed multilevel chain not strictly balanced")
	}
}
