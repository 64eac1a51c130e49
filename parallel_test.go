package repro

// Parallel-multilevel determinism coverage (DESIGN.md §14): Parallelism N
// must produce byte-identical colorings to Parallelism 1 through the full
// multilevel path — parallel matching proposals, contraction sweeps, the
// FM initial gain fill, the π prefetch overlap and the polish border scan
// all claim placement-only parallelism, and this file is where the claim
// is pinned. CI runs this package under -race, so the cancel test below
// doubles as the pool's race check.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// TestMultilevelParallelDeterminism runs the ≥200-seed corpus through the
// multilevel path at Parallelism 1, 2 and 4 and requires byte-identical
// colorings. Corpus instances sit below most fan-out cutoffs (the gates
// route them through the sequential forms at any setting, which is itself
// part of the contract); the large cases appended after the corpus sit
// above every cutoff but the polish border scan's — matching,
// contraction, π sweep and FM gain fill all take their parallel branches
// there. The border scan's parallel branch is checked on 256² meshes by
// internal/core's TestPolishMatchesTrialReference.
func TestMultilevelParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded corpus is a full-test concern")
	}
	cases := mlCorpus()
	if len(cases) < 200 {
		t.Fatalf("corpus has %d cases, want ≥ 200", len(cases))
	}
	// Large instances: above every parallel cutoff but the polish border
	// scan's (192² = 36864 vertices, 73344 edges).
	for seed := int64(1); seed <= 2; seed++ {
		gr := grid.MustBox(192, 192)
		workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, seed)
		cases = append(cases, mlCase{
			name: fmt.Sprintf("large/side=192/seed=%d", seed),
			g:    gr.G,
			opt:  Options{K: 16, P: gr.P(), Splitter: splitter.NewGrid(gr)},
		})
	}
	eng := NewEngine()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Multilevel = &Multilevel{MinVertices: 64}
			opt.Parallelism = 1
			base, err := eng.PartitionWithOptions(context.Background(), tc.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4} {
				popt := opt
				popt.Parallelism = par
				res, err := eng.PartitionWithOptions(context.Background(), tc.g, popt)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				for v := range base.Coloring {
					if res.Coloring[v] != base.Coloring[v] {
						t.Fatalf("par=%d: coloring differs from par=1 at vertex %d (%d vs %d)",
							par, v, res.Coloring[v], base.Coloring[v])
					}
				}
			}
		})
	}
}

// TestMultilevelWarmOracles pins the cross-level warm-start oracle
// (DESIGN.md §14): the multilevel path stays deterministic and keeps the
// full guarantee surface with it, and its per-level oracle calls are
// actually served from the warm frontier order.
func TestMultilevelWarmOracles(t *testing.T) {
	mesh := workload.ClimateMesh(40, 40, 4, 9)
	eng := NewEngine()
	run := func() Result {
		t.Helper()
		res, err := eng.PartitionWithOptions(context.Background(), mesh, Options{
			K: 8, Parallelism: 1,
			Multilevel: &Multilevel{MinVertices: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := Verify(mesh, Options{K: 8}, res, 20); !v.OK() {
			t.Fatalf("warm path failed verification: %v", v.Errors)
		}
		return res
	}
	warm1, warm2 := run(), run()
	for v := range warm1.Coloring {
		if warm1.Coloring[v] != warm2.Coloring[v] {
			t.Fatalf("warm path nondeterministic at %d", v)
		}
	}
	if len(warm1.Diag.LevelProfile) == 0 {
		t.Fatal("multilevel run reported no per-level profile")
	}
	hits := int64(0)
	for _, ld := range warm1.Diag.LevelProfile {
		hits += ld.WarmHits
	}
	if hits == 0 {
		t.Fatal("warm path reported zero warm-oracle hits on a coarsening mesh")
	}
}

// TestMultilevelParallelCancel cancels Parallelism-4 multilevel runs at
// increasing depths — mid-coarsening, the coarsest solve, per-level
// refines with the π prefetch in flight — and checks each run unwinds to
// ctx.Err() with no partial result and that every pool worker and
// prefetch goroutine has drained. CI runs this under -race.
func TestMultilevelParallelCancel(t *testing.T) {
	gr := grid.MustBox(256, 256)
	workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, 1)
	base := runtime.NumGoroutine()
	eng := NewEngine(WithMultilevel(Multilevel{}))
	for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if delay > 0 {
				time.Sleep(delay)
			}
			cancel()
		}()
		res, err := eng.PartitionWithOptions(ctx, gr.G, Options{
			K: 16, P: gr.P(), Splitter: splitter.NewGrid(gr), Parallelism: 4,
		})
		<-done
		cancel()
		if err == nil {
			if !res.Stats.StrictlyBalanced {
				t.Fatalf("delay %v: uncancelled run returned non-strict result", delay)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want context.Canceled", delay, err)
		}
		if res.Coloring != nil {
			t.Fatalf("delay %v: cancelled run leaked a partial coloring", delay)
		}
	}
	waitGoroutines(t, base)
}
