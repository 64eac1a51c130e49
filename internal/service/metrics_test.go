package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/workload"
)

// allStageNames is the full core.StageName set, sorted — what the stage
// histograms must cover after a multilevel run plus a churn repartition.
func allStageNames() []string {
	names := []string{
		string(repro.StageMultiBalance),
		string(repro.StageAlmostStrict),
		string(repro.StageStrictPack),
		string(repro.StagePolish),
		string(repro.StageCoarsen),
		string(repro.StageMultilevel),
	}
	sort.Strings(names)
	return names
}

// scrapeMetrics fetches and returns the /metrics body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// stageCountsFromScrape extracts the per-stage _count samples of the
// stage-duration histogram family from a scrape.
func stageCountsFromScrape(body string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(body, "\n") {
		const prefix = `repro_stage_duration_seconds_count{stage="`
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"`)
		if q < 0 {
			continue
		}
		stage := rest[:q]
		n, err := strconv.ParseInt(strings.TrimSpace(rest[strings.Index(rest, " ")+1:]), 10, 64)
		if err == nil {
			out[stage] = n
		}
	}
	return out
}

// TestStageMetricsCoverTheStageNameSet drives a multilevel decomposition
// and a topology-churn repartition through the server and requires the
// stage-timing histograms to carry exactly the core.StageName set — via
// Server.Stats(), the /v1/stats wire, and the /metrics exposition. A
// missing name means a pipeline path lost its instrumentation; an extra
// name means a stage identifier leaked past the published vocabulary.
func TestStageMetricsCoverTheStageNameSet(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(40, 40, 3, 2)
	up := uploadGraph(t, ts.URL, g)

	// A multilevel run: multilevel + coarsen brackets, then the per-level
	// inner pipelines replay the classic stages (the coarsest level runs
	// multibalance/almoststrict/strictpack, every level polishes).
	var part PartitionResponse
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{
		GraphID: up.GraphID, K: 8, Multilevel: &MultilevelWire{MinVertices: 128},
	}, &part); code != http.StatusOK {
		t.Fatalf("multilevel partition status %d", code)
	}
	if part.Diag.Levels == 0 {
		t.Fatal("multilevel run did not coarsen; the test premise is gone")
	}

	// A direct run for good measure (multibalance on the full instance).
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{
		GraphID: up.GraphID, K: 8,
	}, nil); code != http.StatusOK {
		t.Fatalf("direct partition status %d", code)
	}

	// A churn repartition: topology mutation against the direct session.
	var rep RepartitionResponse
	if code := postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 8,
		Topology: &TopologyWire{
			AddVertices: []float64{1.5, 2.5},
			AddEdges: []EdgeWire{
				{U: 0, V: int32(g.N()), Cost: 1},
				{U: int32(g.N()), V: int32(g.N() + 1), Cost: 1},
			},
		},
	}, &rep); code != http.StatusOK {
		t.Fatalf("churn repartition status %d", code)
	}
	if rep.Cached || rep.ColdStart {
		t.Fatalf("churn repartition cached=%v coldStart=%v; expected a warm resumed run",
			rep.Cached, rep.ColdStart)
	}

	want := allStageNames()

	// Surface 1: the in-process accessor.
	if got := srv.StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}

	// Surface 2: Server.Stats() and its JSON wire form.
	st := srv.Stats()
	var fromStats []string
	for name, sw := range st.Stages {
		fromStats = append(fromStats, name)
		if sw.Count <= 0 || sw.TotalNS <= 0 {
			t.Fatalf("stage %s has empty summary %+v", name, sw)
		}
		if sw.P50NS < 0 || sw.P99NS < sw.P50NS {
			t.Fatalf("stage %s quantiles not ordered: %+v", name, sw)
		}
	}
	sort.Strings(fromStats)
	if !reflect.DeepEqual(fromStats, want) {
		t.Fatalf("Stats().Stages keys = %v, want %v", fromStats, want)
	}
	wireStats := serverStats(t, ts.URL)
	var fromWire []string
	for name := range wireStats.Stages {
		fromWire = append(fromWire, name)
	}
	sort.Strings(fromWire)
	if !reflect.DeepEqual(fromWire, want) {
		t.Fatalf("/v1/stats stages keys = %v, want %v", fromWire, want)
	}

	// Surface 3: the /metrics exposition.
	counts := stageCountsFromScrape(scrapeMetrics(t, ts.URL))
	var fromScrape []string
	for stage, n := range counts {
		fromScrape = append(fromScrape, stage)
		if n <= 0 {
			t.Fatalf("scrape reports zero observations for stage %s", stage)
		}
	}
	sort.Strings(fromScrape)
	if !reflect.DeepEqual(fromScrape, want) {
		t.Fatalf("/metrics stage set = %v, want %v", fromScrape, want)
	}

	// The two surfaces agree on counts: stats summaries are snapshots of
	// the same histograms the scrape renders (scrape taken after Stats, so
	// counts can only have grown — here nothing runs in between).
	for name, sw := range st.Stages {
		if counts[name] < sw.Count {
			t.Fatalf("stage %s: scrape count %d < stats count %d", name, counts[name], sw.Count)
		}
	}
}

// TestConcurrentMultilevelMissesReportThroughObserver sends four
// distinct multilevel misses at once, each in its own run slot, and
// requires the Observer-fed metrics to count every run:
// repro_oracle_calls_total equals the responses' summed splitter_calls,
// every run records a multilevel stage, and polish rounds are counted.
func TestConcurrentMultilevelMissesReportThroughObserver(t *testing.T) {
	const group = 4
	srv, ts := newTestServer(t, Config{MaxRuns: group})
	reqs := make([][]byte, group)
	for i := range reqs {
		up := uploadGraph(t, ts.URL, workload.ClimateMesh(24, 24, 3, int64(i+1)))
		body, err := json.Marshal(PartitionRequest{
			GraphID: up.GraphID, K: 4, Multilevel: &MultilevelWire{MinVertices: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = body
	}
	resps := make([]PartitionResponse, group)
	errs := make([]error, group)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader(reqs[i]))
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", r.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(r.Body).Decode(&resps[i])
		}(i)
	}
	wg.Wait()
	var want int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want += resps[i].Diag.SplitterCalls
	}
	st := srv.Stats()
	if st.PipelineRuns != group {
		t.Fatalf("premise: %d pipeline runs, want %d", st.PipelineRuns, group)
	}
	if want == 0 {
		t.Fatal("premise: the group made no oracle calls")
	}
	if got := srv.metrics.oracleCalls.Value(); got != want {
		t.Fatalf("repro_oracle_calls_total = %d, responses report %d splitter calls", got, want)
	}
	if got := st.Stages[string(repro.StageMultilevel)].Count; got != group {
		t.Fatalf("multilevel stage recorded %d times, want %d", got, group)
	}
	if srv.metrics.polishRounds.Value() == 0 {
		t.Fatal("repro_polish_rounds_total stayed 0")
	}
}

// TestMetricsExpositionGolden pins the scrape surface dashboards depend
// on: the exact HELP/TYPE header lines (names, types, help strings) in
// their exact order, after a deterministic request sequence. Timing
// values are load-dependent, so value lines are checked structurally:
// every line belongs to a declared family, cumulative bucket counts are
// monotone, and each histogram carries _sum and _count.
func TestMetricsExpositionGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(16, 16, 2, 3)
	up := uploadGraph(t, ts.URL, g)
	if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{
		GraphID: up.GraphID, K: 4, Multilevel: &MultilevelWire{MinVertices: 64},
	}, nil); code != http.StatusOK {
		t.Fatalf("partition status %d", code)
	}
	var rep RepartitionResponse
	if code := postJSON(t, ts.URL+"/v1/repartition", RepartitionRequest{
		GraphID: up.GraphID, K: 4, Scale: []WeightUpdate{{V: 0, W: 2}},
		Multilevel: &MultilevelWire{MinVertices: 64},
	}, &rep); code != http.StatusOK {
		t.Fatalf("repartition status %d", code)
	}

	body := scrapeMetrics(t, ts.URL)
	var headers []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# ") {
			headers = append(headers, line)
		}
	}
	want := []string{
		"# HELP repro_busy_seconds_total Summed work-handler occupancy in seconds.",
		"# TYPE repro_busy_seconds_total counter",
		"# HELP repro_cache_entries Result-cache resident entries.",
		"# TYPE repro_cache_entries gauge",
		"# HELP repro_cache_evictions_total Result-cache evictions.",
		"# TYPE repro_cache_evictions_total counter",
		"# HELP repro_cache_hits_total Result-cache hits.",
		"# TYPE repro_cache_hits_total counter",
		"# HELP repro_cache_misses_total Result-cache misses.",
		"# TYPE repro_cache_misses_total counter",
		"# HELP repro_coalesced_total Requests that shared another request's pipeline run.",
		"# TYPE repro_coalesced_total counter",
		"# HELP repro_graphs_stored Resident uploaded or derived instances.",
		"# TYPE repro_graphs_stored gauge",
		"# HELP repro_multilevel_level_duration_seconds Multilevel per-level solve/refine wall time, by hierarchy level (0 = finest).",
		"# TYPE repro_multilevel_level_duration_seconds histogram",
		"# HELP repro_oracle_calls_total Splitting-oracle invocations across all pipeline runs.",
		"# TYPE repro_oracle_calls_total counter",
		"# HELP repro_persist_errors_total Op-log appends that failed.",
		"# TYPE repro_persist_errors_total counter",
		"# HELP repro_pipeline_runs_total Completed pipeline executions (full or resumed).",
		"# TYPE repro_pipeline_runs_total counter",
		"# HELP repro_polish_improved_total Polish sweeps that improved the coloring.",
		"# TYPE repro_polish_improved_total counter",
		"# HELP repro_polish_rounds_total Polish sweeps across all pipeline runs.",
		"# TYPE repro_polish_rounds_total counter",
		"# HELP repro_recovered_sessions_total Repartition sessions rebuilt warm from durable state at boot.",
		"# TYPE repro_recovered_sessions_total counter",
		"# HELP repro_request_duration_seconds Work-request handler time by endpoint, in seconds.",
		"# TYPE repro_request_duration_seconds histogram",
		"# HELP repro_requests_cancelled_total Work requests that ended 499 or 504.",
		"# TYPE repro_requests_cancelled_total counter",
		"# HELP repro_requests_served_total Requests that reached a work handler.",
		"# TYPE repro_requests_served_total counter",
		"# HELP repro_requests_shed_total Work requests answered 503 at admission (capacity sheds).",
		"# TYPE repro_requests_shed_total counter",
		"# HELP repro_sessions Live repartition drift-chain sessions.",
		"# TYPE repro_sessions gauge",
		"# HELP repro_stage_duration_seconds Pipeline stage wall time by stage name, in seconds.",
		"# TYPE repro_stage_duration_seconds histogram",
		"# HELP repro_warm_oracle_hits_total Per-level oracle calls served from the warm frontier order (DESIGN.md §14).",
		"# TYPE repro_warm_oracle_hits_total counter",
	}
	if !reflect.DeepEqual(headers, want) {
		t.Fatalf("HELP/TYPE surface drifted:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(headers, "\n"), strings.Join(want, "\n"))
	}

	// Structural value-line checks: every sample belongs to a declared
	// family; cumulative bucket counts never decrease; _count equals the
	// +Inf bucket.
	families := make(map[string]bool)
	for _, h := range want {
		if strings.HasPrefix(h, "# TYPE ") {
			families[strings.Fields(h)[2]] = true
		}
	}
	var (
		lastBucketSeries string
		lastCum          int64
		infCount         = make(map[string]int64)
		countSamples     = make(map[string]int64)
	)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && families[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !families[base] {
			t.Fatalf("sample %q belongs to no declared family", line)
		}
		val := line[strings.LastIndex(line, " ")+1:]
		if strings.HasSuffix(name, "_bucket") {
			// The _count key this bucket series corresponds to: strip the
			// spliced le label ("{le=..." when it is the only label,
			// ",le=..." otherwise restores the closing brace).
			var series, countKey string
			if i := strings.LastIndex(line, ",le="); i >= 0 {
				series = line[:i]
				countKey = strings.Replace(series, "_bucket", "_count", 1) + "}"
			} else if i := strings.LastIndex(line, "{le="); i >= 0 {
				series = line[:i]
				countKey = strings.Replace(series, "_bucket", "_count", 1)
			} else {
				t.Fatalf("bucket line %q carries no le label", line)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket count %q not an integer: %v", line, err)
			}
			if series == lastBucketSeries && n < lastCum {
				t.Fatalf("cumulative bucket counts decreased at %q", line)
			}
			lastBucketSeries, lastCum = series, n
			if strings.Contains(line, `le="+Inf"`) {
				infCount[countKey] = n
			}
		} else if strings.HasSuffix(name, "_count") && families[base] && base != name {
			n, _ := strconv.ParseInt(val, 10, 64)
			countSamples[line[:strings.LastIndex(line, " ")]] = n
		} else if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("sample %q has unparseable value: %v", line, err)
		}
	}
	if len(infCount) == 0 {
		t.Fatal("no histogram buckets in scrape")
	}
	for countKey, n := range infCount {
		if got, ok := countSamples[countKey]; !ok || got != n {
			t.Fatalf("histogram count %q: +Inf bucket %d but _count %d (present=%v)", countKey, n, got, ok)
		}
	}
}

// TestMetricsCountersMatchStats cross-checks the func-backed counters
// against the /v1/stats JSON on a quiesced server: the two surfaces read
// the same atomics, so they must agree exactly.
func TestMetricsCountersMatchStats(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := workload.ClimateMesh(12, 12, 2, 5)
	up := uploadGraph(t, ts.URL, g)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/partition", PartitionRequest{
			GraphID: up.GraphID, K: 4,
		}, nil); code != http.StatusOK {
			t.Fatalf("partition status %d", code)
		}
	}
	st := srv.Stats()
	// Only GETs happen between the Stats() read and the scrape, and GETs
	// are not instrumented, so the counters cannot move in between.
	body := scrapeMetrics(t, ts.URL)
	for _, check := range []struct {
		line string
		want int64
	}{
		{"repro_pipeline_runs_total", st.PipelineRuns},
		{"repro_cache_hits_total", st.CacheHits},
		{"repro_requests_served_total", st.RequestsServed},
		{"repro_requests_shed_total", st.RequestsShed},
	} {
		needle := fmt.Sprintf("%s %d\n", check.line, check.want)
		if !strings.Contains(body, needle) {
			t.Fatalf("scrape missing %q:\n%s", needle, grepPrefix(body, check.line))
		}
	}
}

// grepPrefix returns the scrape lines starting with prefix, for failure
// messages.
func grepPrefix(body, prefix string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
