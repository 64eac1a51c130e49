package main

// perLayerUnits lists every per-layer metric with its unit: the names
// BENCHMARK.json declares. A layer a workload does not reach reads 0.
var perLayerUnits = map[string]string{
	"repro.drift_ms":               "ms",
	"repro.churn_ms":               "ms",
	"repro.self_ms":                "ms",
	"repro.migration_frac":         "ratio",
	"core.multibalance_ms":         "ms",
	"core.almoststrict_ms":         "ms",
	"core.strictpack_ms":           "ms",
	"core.polish_ms":               "ms",
	"core.multilevel_self_ms":      "ms",
	"core.oracle_calls":            "count",
	"core.polish_improved_ratio":   "ratio",
	"splitter.split_ms":            "ms",
	"splitter.warm_hit_ratio":      "ratio",
	"coarsen.build_ms":             "ms",
	"coarsen.levels":               "count",
	"measure.pi_ms":                "ms",
	"graph.unmarshal_ms":           "ms",
	"service.hit_ms":               "ms",
	"service.miss_ms":              "ms",
	"service.repartition_ms":       "ms",
	"service.churn_ms":             "ms",
	"service.upload_ms":            "ms",
	"service.hit_ratio":            "ratio",
	"service.coalesced_frac":       "ratio",
	"service.pipeline_runs_per_op": "count",
	"service.shed_frac":            "ratio",
	"store.records_per_op":         "count",
	"store.bytes_per_op":           "B",
	"loadgen.certify_ms":           "ms",
	"host.l2_probe_ms":             "ms",
	"trace.overhead_frac":          "ratio",
}

// perLayer derives the per-layer metrics of a traced phase from its spans
// and the workload's own figures. Span times are per op: summed over the
// op's spans and averaged over the measured ops.
func perLayer(tr *tracer, ph *phase) map[string]metric {
	spans := tr.snapshot()
	child := make([]float64, len(spans)) // time covered by each span's children
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	perOp := map[string]float64{}  // span name → summed ms over measured ops
	self := map[string]float64{}   // span name → summed self ms over measured ops
	each := map[string][]float64{} // span name → ms of every span, set-up included
	ops := 0
	for i, s := range spans {
		each[s.Name] = append(each[s.Name], s.ms())
		if s.Op < 0 {
			continue
		}
		if s.Name == "op" {
			ops++
		}
		perOp[s.Name] += s.ms()
		self[s.Name] += s.ms() - child[i]
	}
	perOpMS := func(total float64) float64 { return ratio(total, float64(ops)) }
	m := map[string]metric{}
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }
	set("repro.drift_ms", perOpMS(perOp["repro.drift"]))
	set("repro.churn_ms", perOpMS(perOp["repro.churn"]))
	set("repro.self_ms", perOpMS(self["repro.drift"]+self["repro.churn"]))
	for _, st := range []string{"multibalance", "almoststrict", "strictpack", "polish"} {
		set("core."+st+"_ms", perOpMS(perOp["core."+st]))
	}
	set("core.multilevel_self_ms", perOpMS(self["core.multilevel"]))
	// Event counts cover the ops whose outputs repeat exactly at a seed
	// (one per mesh, or the sessions' quality prefix), so they repeat too.
	var ev events
	for _, e := range ph.events[:min(len(ph.events), len(ph.digests))] {
		ev = ev.plus(e)
	}
	set("core.oracle_calls", ratio(float64(ev.oracleCalls), float64(min(len(ph.events), len(ph.digests)))))
	set("core.polish_improved_ratio", ratio(float64(ev.polishImproved), float64(ev.polishRounds)))
	set("splitter.split_ms", perOpMS(perOp["splitter.split"]))
	if perOp["core.coarsen"] > 0 {
		set("coarsen.build_ms", perOpMS(perOp["core.coarsen"]))
	} else {
		set("coarsen.build_ms", mean(each["coarsen.build"]))
	}
	set("measure.pi_ms", perOpMS(perOp["measure.pi"]))
	set("graph.unmarshal_ms", mean(each["graph.unmarshal"]))
	set("host.l2_probe_ms", median(ph.probes))
	set("repro.migration_frac", mean(ph.migration))
	for name, v := range ph.layer {
		m[name] = v
	}
	return m
}
