package repro

// A multilevel session's colorings depend only on its graph, its oracle
// and its current coloring, never on how the session was started: one
// started by Instance.Partition and one seeded with AdoptColoring must
// agree step by step through a drift-and-churn chain, and a full
// Partition must equal the engine's one-shot run on the same graph and
// options. Along the chain, a topology delta polishes only its dirty
// region.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// replaceIndependentSet builds a delta that removes a seeded independent
// set of ~1% of g's vertices and re-adds each one with its weight and its
// edges to the (surviving) former neighbours.
func replaceIndependentSet(g *graph.Graph, rng *rand.Rand) Delta {
	n := g.N()
	blocked := make([]bool, n)
	var chosen []int32
	for len(chosen) < max(1, n/100) {
		v := int32(rng.Intn(n))
		if blocked[v] {
			continue
		}
		chosen = append(chosen, v)
		blocked[v] = true
		for _, e := range g.IncidentEdges(v) {
			blocked[g.Other(e, v)] = true
		}
	}
	slices.Sort(chosen)
	d := Delta{RemoveVertices: chosen, AddVertices: make([]float64, len(chosen))}
	for i, v := range chosen {
		d.AddVertices[i] = g.Weight[v]
		for _, e := range g.IncidentEdges(v) {
			d.AddEdges = append(d.AddEdges, EdgeChange{U: int32(n + i), V: g.Other(e, v), Cost: g.Cost[e]})
		}
	}
	return d
}

// dayNightScale is a Scale delta moving a sinusoidal illumination band
// one phase (of eight) along the vertex ids modulo cols.
func dayNightScale(n, cols, step int) Delta {
	d := Delta{Scale: make([]WeightChange, n)}
	for v := range d.Scale {
		x := 2 * math.Pi * (float64(v%cols)/float64(cols) + float64(step)/8)
		d.Scale[v] = WeightChange{V: int32(v), W: 1 + 0.5*math.Sin(x)}
	}
	return d
}

func TestPartitionedAndAdoptedSessionsAgree(t *testing.T) {
	const side, k, steps = 48, 8, 12
	ctx := context.Background()
	g := workload.ClimateMesh(side, side, 4, 13)
	eng := NewEngine(WithVerification(VerifyResults), WithMultilevel(Multilevel{MinVertices: 64}))

	a, err := eng.NewInstance(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Partition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	one, err := eng.PartitionWithOptions(ctx, g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Coloring, one.Coloring) {
		t.Fatal("Instance.Partition differs from Engine.PartitionWithOptions")
	}
	b, err := eng.NewInstance(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptColoring(res.Coloring); err != nil {
		t.Fatal(err)
	}

	same := func(step int, what string) {
		t.Helper()
		if !slices.Equal(a.Coloring(), b.Coloring()) {
			t.Fatalf("step %d (%s): colorings differ", step, what)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("step %d (%s): hashes differ: %s vs %s", step, what, a.Hash(), b.Hash())
		}
		if !slices.Equal(a.History(), b.History()) {
			t.Fatalf("step %d (%s): histories differ:\n%v\n%v", step, what, a.History(), b.History())
		}
	}
	same(0, "start")

	rng := rand.New(rand.NewSource(13))
	for step := 1; step <= steps; step++ {
		for _, d := range []Delta{
			dayNightScale(a.Graph().N(), side, step),
			replaceIndependentSet(a.Graph(), rng),
		} {
			what := "drift"
			if d.HasTopology() {
				what = "churn"
			}
			ap, err := d.Apply(a.Graph())
			if err != nil {
				t.Fatal(err)
			}
			var seed []int32
			if ap.Topo != nil {
				seed = seedAcross(ap.Graph, ap.Topo, a.Coloring(), k)
			}
			ra, err := a.Repartition(ctx, d)
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			if seed != nil && graph.IsStrictlyBalanced(ap.Graph, seed, k) {
				// No rebalancing ran, so only the dirty-region polish can
				// have moved a vertex.
				near := make([]bool, ap.Graph.N())
				for _, v := range ap.Dirty {
					near[v] = true
					for _, e := range ap.Graph.IncidentEdges(v) {
						near[ap.Graph.Other(e, v)] = true
					}
				}
				for v := range seed {
					if seed[v] != ra.Coloring[v] && !near[v] {
						t.Fatalf("step %d (%s): vertex %d outside the dirty region moved", step, what, v)
					}
				}
			}
			rb, err := b.Repartition(ctx, d)
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
			if !slices.Equal(ra.Coloring, rb.Coloring) {
				t.Fatalf("step %d (%s): results differ", step, what)
			}
			same(step, what)
		}
	}

	// A full Partition of the drifted graph is the one-shot run on it,
	// whichever way the session was started.
	cur := a.Graph()
	one, err = eng.PartitionWithOptions(ctx, cur, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*Instance{a, b} {
		res, err := in.Partition(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Coloring, one.Coloring) {
			t.Fatal("Partition of the drifted session differs from Engine.PartitionWithOptions")
		}
	}
}

// TestGridInstanceKeepsItsOracle pins the supplied-oracle branch of a
// session: NewGridInstance's GridSplit oracle serves the session's
// partition and its weight-only deltas, and a topology delta drops it for
// core's default, each exactly as the one-shot entry point run with that
// oracle. Both deltas unbalance the session coloring, so the resumed runs
// consult the oracle and the comparisons can tell the oracles apart.
func TestGridInstanceKeepsItsOracle(t *testing.T) {
	const side, k, p = 20, 6, 2 // p = d/(d−1) on a 2-D grid
	ctx := context.Background()
	eng := NewEngine(WithVerification(VerifyResults))
	gr := grid.MustBox(side, side)
	in, err := eng.NewGridInstance(gr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Partition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	one, err := eng.PartitionGrid(ctx, gr, k)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Coloring, one.Coloring) {
		t.Fatal("Instance.Partition differs from Engine.PartitionGrid")
	}

	drift := dayNightScale(gr.G.N(), side, 1)
	ap, err := drift.Apply(in.Graph())
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.Repartition(ctx, drift)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Repartition(ctx, ap.Graph, Options{K: k, P: p, Splitter: splitter.NewGrid(gr)}, res.Coloring)
	if err != nil {
		t.Fatal(err)
	}
	if got.Diag.SplitterCalls == 0 {
		t.Fatal("the drift left the coloring strictly balanced: no oracle call to compare")
	}
	if !slices.Equal(got.Coloring, want.Coloring) {
		t.Fatal("a weight-only delta did not keep the GridSplit oracle")
	}
	dflt, err := eng.Repartition(ctx, ap.Graph, Options{K: k, P: p}, res.Coloring)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(dflt.Coloring, want.Coloring) {
		t.Fatal("GridSplit and the default oracle agree on the drift: the check above cannot tell them apart")
	}

	// Heavy vertices hung off vertex 0 all join its class.
	churn := Delta{AddVertices: make([]float64, 8)}
	for i := range churn.AddVertices {
		churn.AddVertices[i] = 4
		churn.AddEdges = append(churn.AddEdges, EdgeChange{U: int32(gr.G.N() + i), V: 0, Cost: 1})
	}
	ap, err = churn.Apply(in.Graph())
	if err != nil {
		t.Fatal(err)
	}
	seed := seedAcross(ap.Graph, ap.Topo, in.Coloring(), k)
	got, err = in.Repartition(ctx, churn)
	if err != nil {
		t.Fatal(err)
	}
	want, err = core.Refine(ctx, ap.Graph, Options{K: k, P: p}, seed, ap.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Diag.SplitterCalls == 0 {
		t.Fatal("the churn left the coloring strictly balanced: no oracle call to compare")
	}
	if !slices.Equal(got.Coloring, want.Coloring) {
		t.Fatal("a topology delta did not fall back to the default oracle")
	}
}
