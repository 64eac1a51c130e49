package service

// Serving-layer coverage of topology-mutation repartitions: derived-id
// soundness (the patched digest must equal a from-scratch content hash),
// chain continuation off the derived id, strict wire validation
// (unknown fields and invalid mutations are 400s that leave every
// session untouched), and migration accounting across the id remap.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// postRaw posts a raw JSON body and returns status plus decoded error.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	r, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	return r.StatusCode
}

func TestRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 3)
	up := uploadGraph(t, ts.URL, g)
	// A misspelled field must be a 400, not a silently ignored no-op.
	if code := postRaw(t, ts.URL+"/v1/repartition",
		`{"graph_id":"`+up.GraphID+`","k":2,"topolgy":{"add_vertices":[1]}}`); code != http.StatusBadRequest {
		t.Fatalf("misspelled topology field: status %d, want 400", code)
	}
	if code := postRaw(t, ts.URL+"/v1/partition",
		`{"graph_id":"`+up.GraphID+`","k":2,"include_colorings":true}`); code != http.StatusBadRequest {
		t.Fatalf("misspelled partition field: status %d, want 400", code)
	}
	// Unknown fields nested inside a known block are rejected too.
	if code := postRaw(t, ts.URL+"/v1/repartition",
		`{"graph_id":"`+up.GraphID+`","k":2,"topology":{"add_verts":[1]}}`); code != http.StatusBadRequest {
		t.Fatalf("misspelled nested field: status %d, want 400", code)
	}
}

func TestTopologyRepartitionDerivesCanonicalID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(12, 12, 2, 7)
	up := uploadGraph(t, ts.URL, g)

	var part PartitionResponse
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 4}, &part); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}

	n := int32(g.N())
	req := RepartitionRequest{
		GraphID: up.GraphID, K: 4,
		Topology: &TopologyWire{
			RemoveVertices: []int32{5},
			AddVertices:    []float64{2},
			AddEdges:       []EdgeWire{{U: n, V: 0, Cost: 1}},
			RemoveEdges:    []EdgeRefWire{{U: 0, V: 1}},
		},
		Scale:           []WeightUpdate{{V: 3, W: 2}},
		IncludeColoring: true,
	}
	var resp RepartitionResponse
	if code := postJSON(t, ts.URL+"/v1/repartition", req, &resp); code != http.StatusOK {
		t.Fatalf("topology repartition status %d", code)
	}
	if resp.ColdStart {
		t.Fatal("cold start despite a cached base result")
	}
	if resp.PriorGraphID != up.GraphID || resp.GraphID == up.GraphID {
		t.Fatalf("ids: prior %s, derived %s, base %s", resp.PriorGraphID, resp.GraphID, up.GraphID)
	}
	if !resp.Stats.StrictlyBalanced {
		t.Fatal("mutated result not strictly balanced")
	}
	// The inserted vertex has no prior placement, so it always migrates.
	if resp.Migration.Vertices < 1 {
		t.Fatalf("migration %+v should count the inserted vertex", resp.Migration)
	}

	// Derived-id soundness: the incremental digest patch must agree with a
	// from-scratch hash of an independently materialized mutated graph.
	want, err := mutatedReference(g, req)
	if err != nil {
		t.Fatal(err)
	}
	if id := GraphHash(want); id != resp.GraphID {
		t.Fatalf("derived id %s != canonical hash %s of the mutated graph", resp.GraphID, id)
	}

	// The derived id is a first-class instance: a /v1/partition against it
	// is served from the cache the repartition populated…
	var part2 PartitionResponse
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: resp.GraphID, K: 4}, &part2); code != http.StatusOK {
		t.Fatalf("partition of derived id: status %d", code)
	}
	if !part2.Cached {
		t.Fatal("partition of the derived id missed the cache")
	}
	// …and a weight delta chaining off it resolves in the mutated vertex
	// space, warm (the mutated session was stored under the derived id).
	var chain RepartitionResponse
	creq := RepartitionRequest{GraphID: resp.GraphID, K: 4, Scale: []WeightUpdate{{V: 0, W: 3}}}
	if code := postJSON(t, ts.URL+"/v1/repartition", creq, &chain); code != http.StatusOK {
		t.Fatalf("chained weight delta: status %d", code)
	}
	if chain.ColdStart {
		t.Fatal("chained delta cold-started; the mutated session should be warm")
	}

	// Identical mutation again: pure cache hit, reporting the first answer's
	// migration. A topology delta never advances the base session, so the
	// report is measured against the same base coloring as before.
	var again RepartitionResponse
	if code := postJSON(t, ts.URL+"/v1/repartition", req, &again); code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if !again.Cached || again.GraphID != resp.GraphID {
		t.Fatalf("repeat: cached=%v id=%s, want cached id %s", again.Cached, again.GraphID, resp.GraphID)
	}
	if again.Migration != resp.Migration {
		t.Fatalf("repeat migration %+v, want the first answer's %+v", again.Migration, resp.Migration)
	}

	// A base-relative weight delta still resolves in the base vertex space,
	// warm: the base session never absorbed the mutation.
	var drift RepartitionResponse
	dreq := RepartitionRequest{GraphID: up.GraphID, K: 4, Scale: []WeightUpdate{{V: 3, W: 2}}, IncludeColoring: true}
	if code := postJSON(t, ts.URL+"/v1/repartition", dreq, &drift); code != http.StatusOK {
		t.Fatalf("base weight delta after the mutation: status %d", code)
	}
	if drift.ColdStart {
		t.Fatal("base weight delta cold-started; the base session should be warm")
	}
	if len(drift.Coloring) != g.N() {
		t.Fatalf("base weight delta colored %d vertices, want the base's %d", len(drift.Coloring), g.N())
	}
}

// mutatedReference materializes the request's mutation independently of
// the incremental path: documented id mapping (survivors below the cut
// keep ids, tail survivors fill freed slots ascending, inserts from the
// cut up) and a full graph rebuild.
func mutatedReference(g *graph.Graph, req RepartitionRequest) (*graph.Graph, error) {
	t := req.Topology
	n := g.N()
	removed := make([]bool, n)
	for _, v := range t.RemoveVertices {
		removed[v] = true
	}
	cut := n - len(t.RemoveVertices)
	o2n := make([]int32, n)
	slots := make([]int32, 0, len(t.RemoveVertices))
	for v := 0; v < cut; v++ {
		if removed[v] {
			slots = append(slots, int32(v))
		}
	}
	for v, si := 0, 0; v < n; v++ {
		switch {
		case removed[v]:
			o2n[v] = -1
		case v < cut:
			o2n[v] = int32(v)
		default:
			o2n[v] = slots[si]
			si++
		}
	}
	stable := func(s int32) int32 {
		if int(s) < n {
			return o2n[s]
		}
		return int32(cut) + s - int32(n)
	}
	newN := cut + len(t.AddVertices)
	b := graph.NewBuilder(newN)
	w := make([]float64, newN)
	for v := 0; v < n; v++ {
		if o2n[v] >= 0 {
			w[o2n[v]] = g.Weight[v]
		}
	}
	copy(w[cut:], t.AddVertices)
	drop := make(map[[2]int32]bool)
	for _, e := range t.RemoveEdges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		drop[[2]int32{u, v}] = true
	}
	us, vs, cs := g.SortedEdgeList()
	for i := range us {
		u, v := us[i], vs[i]
		if u > v {
			u, v = v, u
		}
		if drop[[2]int32{u, v}] || o2n[u] < 0 || o2n[v] < 0 {
			continue
		}
		b.AddEdge(o2n[u], o2n[v], cs[i])
	}
	for _, e := range t.AddEdges {
		b.AddEdge(stable(e.U), stable(e.V), e.Cost)
	}
	b.SetWeights(w)
	g2, err := b.Build()
	if err != nil {
		return nil, err
	}
	for _, u := range req.Scale {
		g2.Weight[stable(u.V)] *= u.W
	}
	return g2, nil
}

func TestTopologyRepartitionValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 5)
	up := uploadGraph(t, ts.URL, g)
	var part PartitionResponse
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{GraphID: up.GraphID, K: 2}, &part); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	before := s.Stats()

	n := int32(g.N())
	bad := []TopologyWire{
		{RemoveVertices: []int32{n}},                      // out of range
		{RemoveVertices: []int32{1, 1}},                   // duplicate removal
		{AddEdges: []EdgeWire{{U: 0, V: 1, Cost: 1}}},     // duplicates an existing edge
		{AddEdges: []EdgeWire{{U: 0, V: 0, Cost: 1}}},     // self-loop
		{AddEdges: []EdgeWire{{U: 0, V: n + 5, Cost: 1}}}, // endpoint out of stable range
		{RemoveEdges: []EdgeRefWire{{U: 0, V: n - 1}}},    // edge does not exist
		{AddVertices: []float64{-1}},                      // negative weight
	}
	for i, tw := range bad {
		twCopy := tw
		code := postJSON(t, ts.URL+"/v1/repartition",
			RepartitionRequest{GraphID: up.GraphID, K: 2, Topology: &twCopy}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("bad topology %d (%+v): status %d, want 400", i, tw, code)
		}
	}
	// Set on a removed vertex composes invalidly across the forms.
	code := postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 2,
		Topology: &TopologyWire{RemoveVertices: []int32{3}},
		Set:      []WeightUpdate{{V: 3, W: 1}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("set-on-removed: status %d, want 400", code)
	}

	// None of the rejected requests touched stored state: no new graphs,
	// sessions or pipeline runs.
	after := s.Stats()
	if after.GraphsStored != before.GraphsStored || after.Sessions != before.Sessions ||
		after.PipelineRuns != before.PipelineRuns {
		t.Fatalf("rejected mutations changed state: before %+v after %+v", before, after)
	}
}

func TestTopologyRepartitionEmptyBlockIsWeightPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(8, 8, 2, 9)
	up := uploadGraph(t, ts.URL, g)
	// An explicitly empty topology block degrades to the weight-only path
	// (and a null delta re-derives the same graph id).
	var resp RepartitionResponse
	code := postJSON(t, ts.URL+"/v1/repartition",
		RepartitionRequest{GraphID: up.GraphID, K: 2, Topology: &TopologyWire{}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("empty topology block: status %d", code)
	}
	if resp.GraphID != up.GraphID {
		t.Fatalf("null delta derived %s, want the base id %s", resp.GraphID, up.GraphID)
	}
	// Such a request logs the weight-only delta, with no empty topology
	// arrays.
	var req RepartitionRequest
	body := `{"scale":[{"v":1,"w":2}],"topology":{"add_vertices":[],"remove_edges":[]}}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	want := repro.Delta{Scale: []repro.WeightChange{{V: 1, W: 2}}}
	if got := requestDelta(&req); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty topology block gave delta %+v, want %+v", got, want)
	}
}
