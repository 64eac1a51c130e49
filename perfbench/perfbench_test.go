package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// toySizes shrinks every workload so a run takes well under a second.
func toySizes() sizes {
	return sizes{
		DirectSide: 24, MultilevelSide: 48, SessionsSide: 24,
		ServeSide: 8, ServeRequests: 90, ServeDriftSteps: 16, ServeChurnSteps: 12, K: 4,
		Setups: 2, QualityOps: 6,
	}
}

var workloads = []string{"direct", "multilevel", "sessions", "serve"}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runToy runs one toy-sized workload and decodes its two output lines.
func runToy(t *testing.T, workload string, seed int64, trace bool) (map[string]any, result) {
	t.Helper()
	o := options{
		workload: workload, seed: seed, seconds: 0.3, trace: trace,
		out: t.TempDir(), size: toySizes(), par: 2,
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: %d output lines, want 2", workload, len(lines))
	}
	var info struct {
		Info map[string]any `json:"info"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	return info.Info, res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, name, m.Unit, unit)
		}
	}
}

func checkOK(t *testing.T, workload string, info map[string]any, res result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d (%v)", workload, res.Correct, res.Attempted, res.Failed, info["failures"])
	}
}

// TestEndToEndRun checks every workload's untraced run: every declared
// end-to-end metric with its unit, no failed op, and end-to-end metrics
// that are never 0.
func TestEndToEndRun(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, w := range workloads {
		info, res := runToy(t, w, 1, false)
		checkOK(t, w, info, res)
		checkMetrics(t, w, res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

// TestTracedRun checks every workload's traced run: every declared
// per-layer metric with its unit, no failed op, and — on the library
// workloads — traced colorings equal to the untraced ones.
func TestTracedRun(t *testing.T) {
	_, perLayer := declared(t)
	for _, w := range workloads {
		info, res := runToy(t, w, 2, true)
		checkOK(t, w, info, res)
		checkMetrics(t, w, res.Metrics, perLayer)
		if w != "serve" && info["traced_colorings_equal"] != true {
			t.Errorf("%s: traced colorings differ from untraced ones", w)
		}
		if w == "serve" {
			checkServeWrites(t, info, res)
		}
	}
}

// checkServeWrites checks that serve's measured passes carry write
// traffic: every drift and churn request missed the cache, and the
// misses appended to the op log.
func checkServeWrites(t *testing.T, info map[string]any, res result) {
	t.Helper()
	shares, _ := info["request_shares"].(map[string]any)
	for _, class := range []string{"repartition_miss", "churn_miss", "partition_miss", "partition_hit"} {
		if v, _ := shares[class].(float64); v <= 0 {
			t.Errorf("serve: no %s requests in the measured passes (shares %v)", class, shares)
		}
	}
	for _, class := range []string{"repartition_hit", "churn_hit"} {
		if _, ok := shares[class]; ok {
			t.Errorf("serve: a drift or churn request hit the cache (shares %v)", shares)
		}
	}
	for _, name := range []string{"store.records_per_op", "store.bytes_per_op", "service.repartition_ms", "service.churn_ms", "service.miss_ms"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("serve: %s = %v, want > 0", name, v)
		}
	}
}

// TestSeedDeterminesInputs checks that a seed fixes the inputs and the
// outputs that repeat exactly, and that another seed changes the inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, ra := runToy(t, w, 3, false)
		b, rb := runToy(t, w, 3, false)
		c, _ := runToy(t, w, 4, false)
		if a["input_digest"] != b["input_digest"] {
			t.Errorf("%s: seed 3 gave input digests %v and %v", w, a["input_digest"], b["input_digest"])
		}
		if a["input_digest"] == c["input_digest"] {
			t.Errorf("%s: seeds 3 and 4 gave the same input digest", w)
		}
		if w == "serve" {
			continue
		}
		if a["coloring_digest"] != b["coloring_digest"] {
			t.Errorf("%s: seed 3 gave coloring digests %v and %v", w, a["coloring_digest"], b["coloring_digest"])
		}
		if x, y := ra.Metrics["boundary_ratio"].Value, rb.Metrics["boundary_ratio"].Value; x != y {
			t.Errorf("%s: seed 3 gave boundary_ratio %v and %v", w, x, y)
		}
	}
}

// TestTracedCountsRepeat checks that the per-layer counts and ratios of
// the deterministic workloads repeat exactly at one seed.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"core.oracle_calls", "coarsen.levels", "splitter.warm_hit_ratio", "repro.migration_frac"}
	for _, w := range workloads[:3] {
		_, a := runToy(t, w, 5, true)
		_, b := runToy(t, w, 5, true)
		for _, name := range exact {
			if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
				t.Errorf("%s: seed 5 gave %s %v and %v", w, name, x, y)
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (10 samples beyond)", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum", v, pct)
	}
}

func TestNearBorders(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	// Two equal shares: the median sits on their border.
	modes := map[string][]float64{"hit": fill(50, 1), "miss": fill(50, 10)}
	if got := nearBorders(modes, []float64{0.5, 0.9}); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("distinct classes: near = %v, want [0.5]", got)
	}
	alike := map[string][]float64{"mesh0": fill(50, 1), "mesh1": fill(50, 1.05)}
	if got := nearBorders(alike, []float64{0.5}); len(got) != 0 {
		t.Errorf("classes 5%% apart: near = %v, want none", got)
	}
}

func TestJSONNumber(t *testing.T) {
	data := []byte(`{"k":8,"stats":{"max_boundary":12.5,"avg_boundary":3},"migration":{"fraction":0.25}}`)
	if v := jsonNumber(data, `"max_boundary":`); v != 12.5 {
		t.Errorf("max_boundary = %v, want 12.5", v)
	}
	if v := jsonNumber(data, `"fraction":`); v != 0.25 {
		t.Errorf("fraction = %v, want 0.25", v)
	}
	if v := jsonNumber(data, `"missing":`); v != -1 {
		t.Errorf("missing key = %v, want -1", v)
	}
}
