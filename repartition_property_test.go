package repro

// Property tests for the incremental serving path: over random drift
// sequences, Repartition must track from-scratch Partition quality within
// the polish tolerance while keeping its incremental character (bounded
// migration, strict balance at every step). This pins the contract the
// loadgen certifier and the /v1/repartition endpoint rely on.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// driftPolishTol bounds served-vs-scratch max boundary over random drift
// chains on small meshes. The 96×96 acceptance flow pins 1.25
// (cmd/reprosrv) and the loadgen quick profile 1.6; these tiny random
// instances with compounded drifts have the widest relative polish
// variance of all (a 400-seed sweep tops out at 1.66), so 1.8 holds with
// margin while still catching a warm start that loses its prior.
const driftPolishTol = 1.8

// randomDrift perturbs weights in one of the bounded multiplicative
// shapes the serving layer calls drift: a global day/night rescale or a
// sparse hotspot, factors within [1/4, 4]. (Unbounded replacement is a
// new instance, not a drift — the warm start makes no quality promise
// against an unrelated prior.)
func randomDrift(rng *rand.Rand, g *graph.Graph) {
	if rng.Intn(2) == 0 {
		// Banded rescale over the whole instance.
		phase := rng.Float64()
		for v := range g.Weight {
			f := 0.6 + 0.8*phase + 0.4*float64(v%7)/7
			g.Weight[v] *= f
		}
	} else {
		// Sparse hotspot: a few vertices spike or collapse.
		for i := 0; i < 1+rng.Intn(8); i++ {
			v := rng.Intn(g.N())
			g.Weight[v] *= []float64{0.25, 0.5, 2, 4}[rng.Intn(4)]
		}
	}
}

// Property: along a random drift chain, every Repartition result is
// strictly balanced, complete, and within driftPolishTol of a
// from-scratch run on the same weights. Seeds are fixed (not
// quick.Check's time-seeded stream) so a failure reproduces.
func TestRepartitionDriftStaysWithinPolishTolerance(t *testing.T) {
	eng, ctx := NewEngine(), context.Background()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 6+rng.Intn(6), 6+rng.Intn(6)
		g := workload.ClimateMesh(rows, cols, 2, seed)
		k := 2 + rng.Intn(6)
		opt := Options{K: k}

		res, err := eng.Partition(ctx, g, k)
		if err != nil {
			t.Logf("seed %d: initial partition: %v", seed, err)
			return false
		}
		prior := res.Coloring
		steps := 2 + rng.Intn(3)
		for s := 0; s < steps; s++ {
			randomDrift(rng, g)
			inc, err := eng.Repartition(ctx, g, opt, prior)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, s, err)
				return false
			}
			if err := graph.CheckColoring(inc.Coloring, k); err != nil {
				t.Logf("seed %d step %d: %v", seed, s, err)
				return false
			}
			if !inc.Stats.StrictlyBalanced {
				t.Logf("seed %d step %d: not strictly balanced (dev %g > %g)",
					seed, s, inc.Stats.MaxWeightDeviation, inc.Stats.StrictBound)
				return false
			}
			scratch, err := eng.PartitionWithOptions(ctx, g, opt)
			if err != nil {
				t.Logf("seed %d step %d: scratch: %v", seed, s, err)
				return false
			}
			if scratch.Stats.MaxBoundary > 0 &&
				inc.Stats.MaxBoundary > driftPolishTol*scratch.Stats.MaxBoundary {
				t.Logf("seed %d step %d: incremental boundary %g > %g× scratch %g",
					seed, s, inc.Stats.MaxBoundary, driftPolishTol, scratch.Stats.MaxBoundary)
				return false
			}
			prior = inc.Coloring
		}
		return true
	}
	for seed := int64(1); seed <= 200; seed++ {
		if !check(seed) {
			t.Fatalf("drift-chain property failed at seed %d (see log)", seed)
		}
	}
}

// Property: a drift that leaves the prior coloring strictly balanced must
// be absorbed with zero oracle calls (the skip-to-polish fast path) and
// migration bounded by what polish may move.
func TestRepartitionNullDriftIsOracleFree(t *testing.T) {
	eng, ctx := NewEngine(), context.Background()
	for seed := int64(0); seed < 6; seed++ {
		g := workload.ClimateMesh(8, 8, 2, seed)
		k := 4
		res, err := eng.Partition(ctx, g, k)
		if err != nil {
			t.Fatal(err)
		}
		// Uniform rescale: class weights scale together, so the prior is
		// still strictly balanced under the new field.
		for v := range g.Weight {
			g.Weight[v] *= 3
		}
		inc, err := eng.Repartition(ctx, g, Options{K: k}, res.Coloring)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Diag.SplitterCalls != 0 {
			t.Fatalf("seed %d: uniform rescale made %d oracle calls, want 0",
				seed, inc.Diag.SplitterCalls)
		}
		if !inc.Stats.StrictlyBalanced {
			t.Fatalf("seed %d: rescaled result not strict", seed)
		}
	}
}

// Property: migration volume tracks drift size — a sparse drift must not
// repaint the world. (MigrationOf is measured on the drifted weights.)
func TestRepartitionMigrationTracksDrift(t *testing.T) {
	eng, ctx := NewEngine(), context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.ClimateMesh(10, 10, 2, seed)
		k := 5
		res, err := eng.Partition(ctx, g, k)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb ~5% of vertices mildly.
		for i := 0; i < g.N()/20; i++ {
			g.Weight[rng.Intn(g.N())] *= 1.5
		}
		inc, err := eng.Repartition(ctx, g, Options{K: k}, res.Coloring)
		if err != nil {
			t.Fatal(err)
		}
		mig := MigrationOf(g, res.Coloring, inc.Coloring)
		if mig.Vertices > g.N()/2 {
			t.Fatalf("seed %d: sparse drift migrated %d of %d vertices", seed, mig.Vertices, g.N())
		}
		if mig.Fraction < 0 || mig.Fraction > 1 {
			t.Fatalf("seed %d: migration fraction %g outside [0, 1]", seed, mig.Fraction)
		}
	}
}
