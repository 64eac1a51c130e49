package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/store"
)

// Recovery-equivalence property: a server killed at an arbitrary point
// in a random interleaved weight+topology chain and restarted from its
// durable state must serve the remainder of the chain byte-identically
// to a server that never died — same derived graph ids (the digest
// chain), same colorings, same migration reports — and the two stores'
// shadow states (graphs, results, sessions, histories) must converge to
// the same fingerprint.

// chainStep is one scripted request: a weight drift or a topology churn
// against the id the previous step handed out.
type chainStep struct {
	weight *RepartitionRequest // Scale-form drift
	topo   *RepartitionRequest // Topology-form churn
}

// scriptChain builds a deterministic request script for one seed,
// tracking the evolving topology locally so every churn names live
// edges. Requests carry no graph ids — sendChain fills those in from the
// running chain, since ids are outputs under test.
func scriptChain(rng *rand.Rand, g0 *graph.Graph, steps int) []chainStep {
	cur := g0
	var script []chainStep
	for i := 0; i < steps; i++ {
		if rng.Intn(3) == 0 && cur.M() > 2 {
			// Churn: drop one live edge, stitch on one new vertex.
			e := int32(rng.Intn(cur.M()))
			u, v := cur.Endpoints(e)
			n := int32(cur.N())
			a := int32(rng.Intn(int(n)))
			b := int32(rng.Intn(int(n)))
			for b == a {
				b = int32(rng.Intn(int(n)))
			}
			wire := &RepartitionRequest{K: 3, Topology: &TopologyWire{
				RemoveEdges: []EdgeRefWire{{U: u, V: v}},
				AddVertices: []float64{1 + rng.Float64()},
				AddEdges:    []EdgeWire{{U: a, V: n, Cost: 1}, {U: b, V: n, Cost: 1}},
			}, IncludeColoring: true}
			d := repro.Delta{
				RemoveEdges: []repro.EdgeChange{{U: u, V: v}},
				AddVertices: wire.Topology.AddVertices,
				AddEdges: []repro.EdgeChange{
					{U: a, V: n, Cost: 1}, {U: b, V: n, Cost: 1},
				},
			}
			ap, err := d.Apply(cur)
			if err != nil {
				// The random edge pair collided with the removal — skip
				// this step rather than script an invalid request.
				continue
			}
			cur = ap.Graph
			script = append(script, chainStep{topo: wire})
			continue
		}
		// Drift: rescale a couple of vertices by exact binary fractions.
		v1 := int32(rng.Intn(cur.N()))
		v2 := int32(rng.Intn(cur.N()))
		wire := &RepartitionRequest{K: 3, Scale: []WeightUpdate{
			{V: v1, W: 1.5}, {V: v2, W: 0.75},
		}, IncludeColoring: true}
		d := repro.Delta{Scale: []repro.WeightChange{{V: v1, W: 1.5}, {V: v2, W: 0.75}}}
		w, err := d.Materialize(cur)
		if err != nil {
			continue
		}
		cur = cur.WithWeights(w)
		script = append(script, chainStep{weight: wire})
	}
	return script
}

// stepFingerprint is the deterministic slice of a repartition response
// (timing diagnostics excluded).
type stepFingerprint struct {
	GraphID   string
	PriorID   string
	ColdStart bool
	Migration MigrationWire
	Coloring  []int32
	Stats     StatsWire
}

func sendStep(t *testing.T, s *Server, curID string, step chainStep) (stepFingerprint, string) {
	t.Helper()
	req := step.weight
	if req == nil {
		req = step.topo
	}
	r := *req
	r.GraphID = curID
	var resp RepartitionResponse
	if code := doJSON(t, s, "/v1/repartition", r, &resp); code != http.StatusOK {
		t.Fatalf("repartition status %d (base %s)", code, curID)
	}
	return stepFingerprint{
		GraphID:   resp.GraphID,
		PriorID:   resp.PriorGraphID,
		ColdStart: resp.ColdStart,
		Migration: resp.Migration,
		Coloring:  resp.Coloring,
		Stats:     resp.Stats,
	}, resp.GraphID
}

// storeFingerprint summarizes a store's recovered shadow state.
func storeFingerprint(st *store.Store) map[string]string {
	fp := map[string]string{}
	for _, g := range st.RecoveredGraphs() {
		fp["graph|"+g.ID] = fmt.Sprintf("%d/%d", g.Graph.N(), g.Graph.M())
	}
	for _, r := range st.RecoveredResults() {
		fp[fmt.Sprintf("result|%s|%+v", r.GraphID, r.Opt)] = fmt.Sprintf("%v|%v", r.Coloring, r.UsedFallback)
	}
	for _, se := range st.RecoveredSessions() {
		fp[fmt.Sprintf("session|%s|%+v", se.KeyGraphID, se.Opt)] =
			fmt.Sprintf("%s|%v|%+v", se.GraphID, se.Coloring, se.History)
	}
	return fp
}

func TestRecoveryEquivalenceProperty(t *testing.T) {
	const seeds = 100
	if testing.Short() {
		t.Skip("100-seed property sweep")
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			n := 12 + rng.Intn(20)
			g0 := graph.NearRegular(n, 3, int64(seed))
			script := scriptChain(rand.New(rand.NewSource(int64(seed)*7+1)), g0, 5)
			if len(script) == 0 {
				return
			}
			cut := rng.Intn(len(script)) // crash after step `cut`

			// Server A: uninterrupted, with its own store.
			stA := openStore(t, t.TempDir(), store.FsyncAlways)
			defer stA.Close()
			sA := New(Config{Store: stA})
			defer sA.Close()

			// Server B: killed after `cut`, restarted from durable state.
			dirB := t.TempDir()
			stB := openStore(t, dirB, store.FsyncAlways)
			sB := New(Config{Store: stB})

			idA := uploadInProcess(t, sA, g0)
			idB := uploadInProcess(t, sB, g0)
			if idA != idB {
				t.Fatalf("upload ids diverged before any fault: %s vs %s", idA, idB)
			}
			var partA, partB PartitionResponse
			doJSON(t, sA, "/v1/partition", PartitionRequest{GraphID: idA, K: 3, IncludeColoring: true}, &partA)
			doJSON(t, sB, "/v1/partition", PartitionRequest{GraphID: idB, K: 3, IncludeColoring: true}, &partB)
			if !reflect.DeepEqual(partA.Coloring, partB.Coloring) {
				t.Fatal("baseline partition colorings diverged (pipeline nondeterminism?)")
			}

			curA, curB := idA, idB
			for i, step := range script {
				fpA, nextA := sendStep(t, sA, curA, step)
				fpB, nextB := sendStep(t, sB, curB, step)
				if !reflect.DeepEqual(fpA, fpB) {
					t.Fatalf("step %d diverged (cut=%d):\n A %+v\n B %+v", i, cut, fpA, fpB)
				}
				curA, curB = nextA, nextB

				if i == cut {
					// SIGKILL B and bring it back from the data dir.
					sB.Close()
					stB.Abandon()
					stB = openStore(t, dirB, store.FsyncAlways)
					sB = New(Config{Store: stB})
				}
			}
			sB.Close()
			if err := stB.Close(); err != nil {
				t.Fatal(err)
			}

			// The shadow states converge: same graphs (digest chain), same
			// results, same sessions with identical colorings + histories.
			stB2 := openStore(t, dirB, store.FsyncAlways)
			defer stB2.Close()
			fpA, fpB := storeFingerprint(stA), storeFingerprint(stB2)
			if !reflect.DeepEqual(fpA, fpB) {
				for k, v := range fpA {
					if fpB[k] != v {
						t.Errorf("store state diverged at %s:\n A %s\n B %s", k, v, fpB[k])
					}
				}
				for k := range fpB {
					if _, ok := fpA[k]; !ok {
						t.Errorf("store B has extra entry %s", k)
					}
				}
			}
		})
	}
}
