// Command experiments regenerates every table of the experiment suite
// (DESIGN.md §3, E1–E12), the reproduction of the paper's bounds, and
// hosts the batch-throughput harness for the parallel engine.
//
// Usage:
//
//	experiments [-quick] [-only E4] [-json]
//	experiments -batch 32 [-batchsize 48] [-k 16] [-par 0] [-json]
//	experiments -multilevel [-sides 128,256,512] [-k 16] [-json]
//
// With -json the output is machine-readable: the experiment suite emits a
// JSON array of tables, the batch harness a single throughput record, and
// the multilevel harness an array of per-size comparisons — the formats
// the BENCH_*.json perf trajectory and the EXPERIMENTS.md multilevel
// table ingest.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// batchReport is the machine-readable summary of one -batch run.
type batchReport struct {
	Instances   int     `json:"instances"`
	Side        int     `json:"side"`
	K           int     `json:"k"`
	Parallelism int     `json:"parallelism"`
	SeqSeconds  float64 `json:"seq_seconds"`
	ParSeconds  float64 `json:"par_seconds"`
	SeqInstPerS float64 `json:"seq_inst_per_s"`
	ParInstPerS float64 `json:"par_inst_per_s"`
	Speedup     float64 `json:"speedup"`
}

// runBatch exercises Engine.Batch on n fixed-seed climate meshes,
// once sequentially and once on the full pool, and returns the throughput
// comparison. This is the command-line face of the "serve heavy traffic"
// direction: many independent instances fanned across cores.
func runBatch(n, side, k, par int) (batchReport, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = workload.ClimateMesh(side, side, 4, int64(i+1))
	}

	eng := repro.NewEngine()
	run := func(p int) ([]repro.Result, time.Duration, error) {
		start := time.Now()
		rs, err := eng.Batch(context.Background(), gs, repro.Options{K: k, Parallelism: p})
		return rs, time.Since(start), err
	}
	seqRes, seqDur, err := run(1)
	if err != nil {
		return batchReport{}, err
	}
	parRes, parDur, err := run(par)
	if err != nil {
		return batchReport{}, err
	}
	for i := range seqRes {
		if !slices.Equal(seqRes[i].Coloring, parRes[i].Coloring) {
			return batchReport{}, fmt.Errorf("instance %d: parallel coloring differs from sequential", i)
		}
	}
	return batchReport{
		Instances:   n,
		Side:        side,
		K:           k,
		Parallelism: par,
		SeqSeconds:  seqDur.Seconds(),
		ParSeconds:  parDur.Seconds(),
		SeqInstPerS: float64(n) / seqDur.Seconds(),
		ParInstPerS: float64(n) / parDur.Seconds(),
		Speedup:     seqDur.Seconds() / parDur.Seconds(),
	}, nil
}

func (r batchReport) print() {
	fmt.Printf("batch: %d × ClimateMesh(%d×%d) k=%d\n", r.Instances, r.Side, r.Side, r.K)
	fmt.Printf("  par=1:  %10.3fs  (%.2f inst/s)\n", r.SeqSeconds, r.SeqInstPerS)
	fmt.Printf("  par=%-2d: %10.3fs  (%.2f inst/s)\n", r.Parallelism, r.ParSeconds, r.ParInstPerS)
	fmt.Printf("  speedup: %.2fx   colorings: identical\n", r.Speedup)
}

// mlReport is one row of the -multilevel comparison: the direct pipeline
// versus the multilevel path on the same fixed-seed instance.
type mlReport struct {
	Family       string  `json:"family"`
	Side         int     `json:"side"`
	N            int     `json:"n"`
	K            int     `json:"k"`
	Levels       int     `json:"levels"`
	DirectSecs   float64 `json:"direct_seconds"`
	MLSecs       float64 `json:"ml_seconds"`
	Speedup      float64 `json:"speedup"`
	DirectMaxB   float64 `json:"direct_max_boundary"`
	MLMaxB       float64 `json:"ml_max_boundary"`
	BoundaryOver float64 `json:"boundary_ratio"`
}

// runMultilevel compares the direct and multilevel paths on the two
// instance families of the paper (exact grids with the Section 6 oracle,
// climate meshes with BFS+FM) at the given side lengths; the reported
// rows regenerate the EXPERIMENTS.md multilevel table.
func runMultilevel(sides []int, k int) ([]mlReport, error) {
	eng := repro.NewEngine()
	var out []mlReport
	run := func(family string, side int, g *graph.Graph, opt repro.Options) error {
		direct, err := eng.PartitionWithOptions(context.Background(), g, opt)
		if err != nil {
			return err
		}
		mlOpt := opt
		mlOpt.Multilevel = &repro.Multilevel{}
		ml, err := eng.PartitionWithOptions(context.Background(), g, mlOpt)
		if err != nil {
			return err
		}
		if v := repro.Verify(g, opt, ml, 20); !v.OK() {
			return fmt.Errorf("%s: multilevel result failed verification: %v", family, v.Errors)
		}
		out = append(out, mlReport{
			Family:       family,
			Side:         side,
			N:            g.N(),
			K:            k,
			Levels:       ml.Diag.Levels,
			DirectSecs:   direct.Diag.Total.Seconds(),
			MLSecs:       ml.Diag.Total.Seconds(),
			Speedup:      direct.Diag.Total.Seconds() / ml.Diag.Total.Seconds(),
			DirectMaxB:   direct.Stats.MaxBoundary,
			MLMaxB:       ml.Stats.MaxBoundary,
			BoundaryOver: ml.Stats.MaxBoundary / direct.Stats.MaxBoundary,
		})
		return nil
	}
	for _, side := range sides {
		gr := grid.MustBox(side, side)
		workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, 1)
		if err := run("grid", side, gr.G, repro.Options{K: k, P: gr.P(), Splitter: splitter.NewGrid(gr)}); err != nil {
			return nil, err
		}
		mesh := workload.ClimateMesh(side, side, 4, 1)
		if err := run("climate", side, mesh, repro.Options{K: k}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func printML(rows []mlReport) {
	fmt.Println("multilevel vs direct (fixed seeds; speedup = direct/ml wall clock)")
	fmt.Printf("  %-8s %6s %9s %4s %7s %10s %10s %8s %9s\n",
		"family", "side", "n", "lvl", "speedup", "direct_s", "ml_s", "∂ratio", "ml_max∂")
	for _, r := range rows {
		fmt.Printf("  %-8s %6d %9d %4d %6.2fx %10.3f %10.3f %8.3f %9.4g\n",
			r.Family, r.Side, r.N, r.Levels, r.Speedup, r.DirectSecs, r.MLSecs, r.BoundaryOver, r.MLMaxB)
	}
}

// exp is one registered experiment.
type exp struct {
	id string
	fn func(bench.Config) bench.Table
}

// suite is the experiment registry in execution order. The -json output
// of this suite and of the batch harness is a machine-readable contract
// (BENCH_*.json ingests it); its shape is pinned by the golden-file test.
func suite() []exp {
	return []exp{
		{"E1", bench.E1MaxBoundaryVsK},
		{"E2", bench.E2StrictBalance},
		{"E3", bench.E3Tightness},
		{"E4", bench.E4GridSeparator},
		{"E5", bench.E5NoTradeoff},
		{"E6", bench.E6GreedyBaseline},
		{"E7", bench.E7AvgVsMax},
		{"E8", bench.E8Makespan},
		{"E9", bench.E9Scaling},
		{"E10", bench.E10Ablations},
		{"E11", bench.E11SeparatorEquiv},
		{"E12", bench.E12MultiBalanced},
	}
}

func main() {
	quick := flag.Bool("quick", false, "run at reduced instance sizes")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E4)")
	batch := flag.Int("batch", 0, "instead of the experiment suite, run a batch of this many climate-mesh instances through Engine.Batch")
	batchSize := flag.Int("batchsize", 48, "side length of each batch instance")
	kFlag := flag.Int("k", 16, "number of parts for -batch / -multilevel")
	par := flag.Int("par", 0, "worker-pool bound for -batch (0 = GOMAXPROCS)")
	multilevel := flag.Bool("multilevel", false, "instead of the experiment suite, compare the direct and multilevel paths")
	sides := flag.String("sides", "128,256,512", "comma-separated instance side lengths for -multilevel")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	flag.Parse()

	emit := func(v any) {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: encoding JSON: %v\n", err)
			os.Exit(1)
		}
	}

	if *batch > 0 {
		report, err := runBatch(*batch, *batchSize, *kFlag, *par)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			emit(report)
		} else {
			report.print()
		}
		return
	}

	if *multilevel {
		var sideList []int
		for _, s := range strings.Split(*sides, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 2 {
				fmt.Fprintf(os.Stderr, "experiments: bad -sides entry %q\n", s)
				os.Exit(2)
			}
			sideList = append(sideList, v)
		}
		rows, err := runMultilevel(sideList, *kFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			emit(rows)
		} else {
			printML(rows)
		}
		return
	}

	cfg := bench.Config{Quick: *quick}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	var tables []bench.Table
	ran := 0
	for _, e := range suite() {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		tbl := e.fn(cfg)
		if *jsonOut {
			tables = append(tables, tbl)
		} else {
			tbl.Fprint(os.Stdout)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches -only=%q\n", *only)
		os.Exit(2)
	}
	if *jsonOut {
		emit(tables)
	}
}
