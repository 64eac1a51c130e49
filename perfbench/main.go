// Command perfbench is the repository's end-to-end benchmark. It drives the
// partitioner only through its public entry points — repro.Engine and
// repro.Instance, and service.Server behind a loadgen.Target — on one of
// four seeded workloads, verifies every output, and prints the metrics
// BENCHMARK.json names as one JSON object on the last line of standard
// output. perfbench/run.sh builds it from the checkout and runs it:
//
//	bash perfbench/run.sh --workload direct --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs half the time
// untraced and half traced, records spans in memory (written to
// <out>/spans-<workload>-<seed>.jsonl at the end) and prints the
// per-layer metrics derived from them. The line before the last holds
// the run's details: host facts, input and coloring digests, tail
// percentile and sample count, probe times and stationarity checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// sizes fixes the input sizes and loop shape of a run; the self-tests use
// toy sizes.
type sizes struct {
	DirectSide      int // direct: ClimateMesh side
	MultilevelSide  int // multilevel: ClimateMesh side
	SessionsSide    int // sessions: ClimateMesh side
	ServeSide       int // serve: side of the base mesh of each G̃ instance
	ServeRequests   int // serve: requests per measured trace pass
	ServeDriftSteps int // serve: drift chain length, more than any instance's repartitions in a pass
	ServeChurnSteps int // serve: churn chain length, more than any instance's churns in a pass
	K               int // part count of the library workloads
	Setups          int // set-ups before the measured loop of an untraced run
	QualityOps      int // sessions: the fixed op prefix the quality means cover
}

func fullSizes() sizes {
	return sizes{
		DirectSide: 224, MultilevelSide: 384, SessionsSide: 192,
		ServeSide: 40, ServeRequests: 500, ServeDriftSteps: 50, ServeChurnSteps: 32, K: 16,
		Setups: 3, QualityOps: 30,
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	size     sizes
	par      int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{size: fullSizes(), par: runtime.GOMAXPROCS(0)}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: direct, multilevel, sessions or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the op log and span files")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	info, res, err := execute(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if info["stationary"] == false {
		fmt.Fprintln(os.Stderr, "perfbench: warning: a stationarity check failed; see the details line")
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// execute runs one workload and assembles the result line and the details.
func execute(o options) (map[string]any, result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, result{}, err
	}
	probe := newL2Probe()
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "parallelism": o.par,
		"go": runtime.Version(), "input_digest": w.inputDigest(),
	}
	if !o.trace {
		ph, err := measurePhase(w, nil, probe, o.size.Setups, o.seconds)
		if err != nil {
			return nil, result{}, err
		}
		ph.describe(info)
		return info, result{
			Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed,
			Metrics: endToEnd(ph),
		}, nil
	}

	// Traced run: an untraced half, then a traced half on a fresh set-up.
	base, err := measurePhase(w, nil, probe, 1, o.seconds/2)
	if err != nil {
		return nil, result{}, err
	}
	tr := newTracer()
	ph, err := measurePhase(w, tr, probe, 1, o.seconds/2)
	if err != nil {
		return nil, result{}, err
	}
	ph.describe(info)
	same := sameColorings(base, ph)
	info["traced_colorings_equal"] = same
	overhead := ratio(median(ph.lat), median(base.lat)) - 1
	info["trace_overhead"] = map[string]float64{
		"latency_p50_frac":   overhead,
		"ops_per_s_untraced": ratio(float64(base.attempted-base.failed), base.busy.Seconds()),
		"ops_per_s_traced":   ratio(float64(ph.attempted-ph.failed), ph.busy.Seconds()),
	}
	spansFile := filepath.Join(o.out, "spans-"+o.workload+"-"+strconv.FormatInt(o.seed, 10)+".jsonl")
	if err := tr.writeSpans(spansFile); err != nil {
		return nil, result{}, err
	}
	info["spans_file"] = spansFile
	m := perLayer(tr, ph)
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	failed := ph.failed + base.failed
	return info, result{
		Correct:   failed == 0 && same,
		Attempted: ph.attempted + base.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// system is one set-up of a workload's system under test.
type system interface {
	// step runs the next unit of the closed loop — one op of a library
	// workload, one trace pass of serve — and reports its samples. An
	// error ends the run; a failed op is reported in the samples.
	step(op int) (stepResult, error)
	// finish adds the workload's own figures and checks after the
	// measured phase.
	finish(ph *phase)
	close()
}

// workloadDef generates a run's seeded inputs and sets up systems over them.
type workloadDef interface {
	inputDigest() string
	// setup builds a fresh system, warm-up included; its duration is one
	// setup_s sample.
	setup(tr *tracer) (system, error)
}

func newWorkload(o options) (workloadDef, error) {
	switch o.workload {
	case "direct":
		return newSolve(o, o.size.DirectSide, false), nil
	case "multilevel":
		return newSolve(o, o.size.MultilevelSide, true), nil
	case "sessions":
		return newSessions(o), nil
	case "serve":
		return newServe(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want direct, multilevel, sessions or serve)", o.workload)
	}
}

// stepResult is what one step of the closed loop observed.
type stepResult struct {
	lat       []float64     // program latency of each op, ms
	errs      []string      // one per op that errored or failed verification
	quality   []float64     // boundary ratio of each verified result
	migration []float64     // weight fraction moved by each repartition
	class     []string      // class of each op
	digest    string        // coloring digest of a deterministic op
	setupS    []float64     // set-ups the step ran before its ops (serve: a fresh server)
	busy      time.Duration // measured time, if the step did other work too (a set-up); 0: all of it
	// outsideAlloc is what the step allocated outside its ops (its set-up),
	// which alloc_mb_per_op leaves out.
	outsideAlloc uint64
}

// phase collects one set-up-and-measure cycle.
type phase struct {
	setupS     []float64
	lat        []float64
	class      []string // op class of each latency
	attempted  int
	failed     int
	quality    []float64
	migration  []float64
	digests    []string
	busy       time.Duration // summed step times of the measured loop
	allocBytes uint64
	peakRSS    float64
	probes     []float64 // l2 probe ms: before, [between ops,] after
	events     []events  // traced: Observer events of each measured op
	layer      map[string]metric
	details    map[string]any
	failures   []string
	unsteady   []string // failed workload-specific stationarity checks
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// measurePhase sets the workload up `setups` times (keeping the last system),
// then runs its closed loop for `seconds`.
func measurePhase(w workloadDef, tr *tracer, probe *l2Probe, setups int, seconds float64) (*phase, error) {
	ph := &phase{layer: map[string]metric{}, details: map[string]any{}}
	var sys system
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		// Collect the previous set-up's system before timing the next, so
		// set-ups do not pile up in the heap.
		runtime.GC()
		start := time.Now()
		s, err := w.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupS = append(ph.setupS, time.Since(start).Seconds())
		sys = s
	}
	defer sys.close()

	runtime.GC()
	ph.probes = append(ph.probes, probe.run())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	budget := time.Duration(seconds * float64(time.Second))
	var busy time.Duration
	var outsideAlloc uint64
	for op := 0; busy < budget || op == 0; op++ {
		tr.setOp(op)
		opSpan := tr.begin("op")
		ev := tr.events()
		start := time.Now()
		r, err := sys.step(op)
		if err != nil {
			return nil, err
		}
		if r.busy > 0 {
			busy += r.busy
		} else {
			busy += time.Since(start)
		}
		tr.end(opSpan)
		tr.setOp(-1)
		ph.setupS = append(ph.setupS, r.setupS...)
		outsideAlloc += r.outsideAlloc
		if tr != nil {
			ph.events = append(ph.events, tr.events().minus(ev))
		}
		ph.lat = append(ph.lat, r.lat...)
		ph.class = append(ph.class, r.class...)
		ph.attempted += len(r.lat)
		for _, e := range r.errs {
			ph.fail("step %d: %s", op, e)
		}
		ph.quality = append(ph.quality, r.quality...)
		ph.migration = append(ph.migration, r.migration...)
		if r.digest != "" {
			ph.digests = append(ph.digests, r.digest)
		}
		if tr != nil {
			ph.probes = append(ph.probes, probe.run())
		}
	}
	ph.busy = busy
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc - outsideAlloc
	ph.probes = append(ph.probes, probe.run())
	sys.finish(ph)
	ph.peakRSS = peakRSSMB()
	return ph, nil
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase) map[string]metric {
	tailMS, _ := tail(ph.lat)
	ops := float64(ph.attempted)
	return map[string]metric{
		"setup_s":         {median(ph.setupS), "s"},
		"ops_per_s":       {ratio(float64(ph.attempted-ph.failed), ph.busy.Seconds()), "1/s"},
		"latency_p50_ms":  {median(ph.lat), "ms"},
		"latency_tail_ms": {tailMS, "ms"},
		"boundary_ratio":  {mean(ph.quality), "ratio"},
		"alloc_mb_per_op": {ratio(float64(ph.allocBytes)/(1<<20), ops), "MB"},
		"mem_peak_mb":     {ph.peakRSS, "MB"},
	}
}

// describe adds the phase's details to the info map.
func (ph *phase) describe(info map[string]any) {
	tailMS, pct := tail(ph.lat)
	info["ops"] = ph.attempted
	info["failed"] = ph.failed
	if len(ph.failures) > 0 {
		info["failures"] = ph.failures
	}
	info["setup_s_samples"] = ph.setupS
	info["latency_p50_ms"] = median(ph.lat)
	info["latency_tail"] = map[string]float64{"ms": tailMS, "percentile": pct, "samples": float64(len(ph.lat))}
	byClass := map[string][]float64{}
	for i, c := range ph.class {
		byClass[c] = append(byClass[c], ph.lat[i])
	}
	classes := map[string][2]float64{}
	for c, xs := range byClass {
		classes[c] = [2]float64{float64(len(xs)), median(xs)}
	}
	info["op_classes_count_median_ms"] = classes
	near := nearBorders(byClass, []float64{0.5, pct / 100})
	info["percentiles_near_class_border"] = near
	if len(ph.unsteady) > 0 {
		info["stationarity_failures"] = ph.unsteady
	}
	info["stationary"] = len(near) == 0 && len(ph.unsteady) == 0
	info["l2_probe_ms"] = map[string]float64{
		"before": ph.probes[0], "after": ph.probes[len(ph.probes)-1], "median": median(ph.probes),
	}
	if len(ph.digests) > 0 {
		info["coloring_digest"] = chainDigest(ph.digests)
	}
	if len(ph.migration) > 0 {
		info["migration_frac"] = mean(ph.migration)
	}
	for k, v := range ph.details {
		info[k] = v
	}
}

// sameColorings reports whether two phases of a deterministic workload
// produced the same colorings over the ops both ran. Workloads without
// coloring digests (serve) compare trivially.
func sameColorings(a, b *phase) bool {
	n := min(len(a.digests), len(b.digests))
	for i := 0; i < n; i++ {
		if a.digests[i] != b.digests[i] {
			return false
		}
	}
	return true
}
