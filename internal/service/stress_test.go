package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Stress tests for the concurrent spine of the service — the run slots,
// the singleflight coalescer, and the LRU caches under eviction churn —
// designed to run meaningfully under -race (CI races ./internal/... on
// every push). Each test hammers one interleaving family; none depends
// on timing for correctness, only for coverage.

// stressGraphs builds n tiny distinct instances.
func stressGraphs(n int) []*graph.Graph {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = workload.ClimateMesh(5, 5, 2, int64(i+1))
	}
	return gs
}

// Concurrent identical and distinct misses racing through the cache →
// coalescer → run-slot path, with a cache small enough to evict
// constantly: per serving invariant 2, distinct (graph, k) keys may each
// run at most once per eviction, and every 200 must be strictly balanced.
func TestStressCoalesceAndEvict(t *testing.T) {
	const workers = 16
	const perWorker = 25
	// A slot per worker: every miss runs, none is shed.
	s := New(Config{CacheSize: 2, MaxRuns: workers})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	gs := stressGraphs(4)
	ids := make([]string, len(gs))
	for i, g := range gs {
		ids[i] = s.storeGraph(g, nil)
	}

	var wg sync.WaitGroup
	var badStatus, notBalanced int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the workers hammer one hot key (coalescing), the
				// rest cycle keys (distinct misses + eviction churn).
				inst := 0
				if w%2 == 1 {
					inst = (w + i) % len(gs)
				}
				body := fmt.Sprintf(`{"graph_id":%q,"k":%d}`, ids[inst], 2+(w+i)%3)
				resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strBody(body))
				if err != nil {
					atomic.AddInt64(&badStatus, 1)
					continue
				}
				var pr PartitionResponse
				ok := resp.StatusCode == http.StatusOK
				if ok {
					if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || !pr.Stats.StrictlyBalanced {
						atomic.AddInt64(&notBalanced, 1)
					}
				} else if resp.StatusCode != http.StatusServiceUnavailable {
					atomic.AddInt64(&badStatus, 1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if badStatus != 0 || notBalanced != 0 {
		t.Fatalf("bad statuses: %d, unbalanced/undecodable 200s: %d", badStatus, notBalanced)
	}
	st := s.Stats()
	if st.CacheEvictions == 0 {
		t.Fatal("stress run produced no evictions at cache size 2")
	}
	// With a 2-entry cache over 12 distinct (graph, k) keys, eviction
	// reruns are expected — but hits plus coalesced waits must still be
	// absorbing a chunk of the traffic, or sharing is broken outright.
	if st.PipelineRuns >= workers*perWorker {
		t.Fatalf("pipeline ran %d times for %d requests — no sharing at all",
			st.PipelineRuns, workers*perWorker)
	}
	if st.CacheHits+st.Coalesced == 0 {
		t.Fatal("no request was served by cache or coalescing under churn")
	}
}

// Shutdown while draining: requests keep arriving as Close runs. Every
// in-flight request must complete with 200 or 503 — no hangs, no panics —
// and Close must not return before the admitted runs have finished, so no
// run completes after it.
func TestStressShutdownWhileDraining(t *testing.T) {
	for round := 0; round < 4; round++ {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		gs := stressGraphs(6)
		ids := make([]string, len(gs))
		for i, g := range gs {
			ids[i] = s.storeGraph(g, nil)
		}

		const workers = 12
		var wg sync.WaitGroup
		var unexpected int64
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					body := fmt.Sprintf(`{"graph_id":%q,"k":%d,"no_cache":true}`, ids[(w+i)%len(ids)], 2+i%4)
					resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strBody(body))
					if err != nil {
						// The listener may already be gone; that's the
						// harness, not the server.
						continue
					}
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
						atomic.AddInt64(&unexpected, 1)
					}
					resp.Body.Close()
				}
			}(w)
		}
		close(start)
		// Let some requests get in flight, then close the server.
		time.Sleep(time.Duration(round) * time.Millisecond)
		s.Close()
		runs := s.Stats().PipelineRuns
		wg.Wait()
		ts.Close()
		if unexpected != 0 {
			t.Fatalf("round %d: %d responses were neither 200 nor 503", round, unexpected)
		}
		if got := s.Stats().PipelineRuns; got != runs {
			t.Fatalf("round %d: %d runs completed after Close returned", round, got-runs)
		}
	}
}

// The repartition path races the run slots, the graph store, the flight
// group, and the base session's advance against sessions stored under
// derived ids, all at once; concurrent identical and distinct weight and
// topology deltas must never corrupt a served coloring.
func TestStressRepartitionConcurrent(t *testing.T) {
	s := New(Config{MaxRuns: 4})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	g := workload.ClimateMesh(8, 8, 2, 7)
	id := s.storeGraph(g, nil)
	// Warm the prior.
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json",
		strBody(fmt.Sprintf(`{"graph_id":%q,"k":4}`, id)))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %v %v", err, resp)
	}
	resp.Body.Close()

	const workers = 16
	var wg sync.WaitGroup
	var bad int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Workers 0–5 send one identical delta (coalesce + cache
				// hits); 6–11 send distinct ones (semaphore churn); 12–15
				// send base-relative topology deltas, eight distinct ones
				// that each worker repeats, so fresh instances land under
				// derived keys while the base session advances.
				n := g.N() // the vertex count of the answer's coloring
				var body string
				if w < 12 {
					f := 2.0
					if w >= 6 {
						f = 1 + float64(w*8+i)/100
					}
					body = fmt.Sprintf(`{"graph_id":%q,"k":4,"scale":[{"v":%d,"w":%g}],"include_coloring":true}`,
						id, (w*3+i)%4, f)
				} else {
					body = fmt.Sprintf(`{"graph_id":%q,"k":4,"topology":{"add_vertices":[1],"add_edges":[{"u":%d,"v":%d,"cost":1}]},"include_coloring":true}`,
						id, n, (w+i)%8)
					n++
				}
				resp, err := http.Post(ts.URL+"/v1/repartition", "application/json", strBody(body))
				if err != nil {
					atomic.AddInt64(&bad, 1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var rr RepartitionResponse
					if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || len(rr.Coloring) != n ||
						graph.CheckColoring(rr.Coloring, 4) != nil || !rr.Stats.StrictlyBalanced {
						atomic.AddInt64(&bad, 1)
					}
				case http.StatusServiceUnavailable:
				default:
					atomic.AddInt64(&bad, 1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if bad != 0 {
		t.Fatalf("%d corrupt or unexpected repartition responses", bad)
	}
}

func strBody(s string) *strings.Reader { return strings.NewReader(s) }
