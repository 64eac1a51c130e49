package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/splitter"
	"repro/internal/workload"
)

// Property: across random instance families (trees, expander-ish graphs,
// meshes, geometric graphs) and random k, Decompose always returns a
// complete, strictly balanced coloring.
func TestDecomposePropertyAcrossFamilies(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(4) {
		case 0:
			g = graph.RandomTree(20+rng.Intn(150), seed)
		case 1:
			g = graph.NearRegular(20+rng.Intn(150), 3+rng.Intn(4), seed)
		case 2:
			g = workload.ClimateMesh(4+rng.Intn(10), 4+rng.Intn(10), 2, seed)
		default:
			g = workload.RandomGeometric(80+rng.Intn(200), 0.12, 10, seed)
		}
		for v := range g.Weight {
			g.Weight[v] = rng.Float64()*5 + 0.01
		}
		k := 2 + rng.Intn(10)
		res, err := Decompose(context.Background(), g, Options{K: k})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := graph.CheckColoring(res.Coloring, k); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return res.Stats.StrictlyBalanced
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pipeline is deterministic — same input, same output.
func TestDecomposeDeterministic(t *testing.T) {
	g := workload.ClimateMesh(10, 10, 2, 5)
	a, err := Decompose(context.Background(), g, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(context.Background(), g, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
}

// Failure injection: a splitter that violates the Definition 3 contract
// (returns wildly wrong weights). The pipeline must not panic and must
// still deliver a strictly balanced coloring via its backstops. It keeps
// the concurrency contract: the pipeline calls it from several pool
// workers at once, so the shared rng is locked.
type brokenSplitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (b *brokenSplitter) Split(_ context.Context, W []int32, w []float64, target float64) []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.rng.Intn(4) {
	case 0:
		return nil // always empty
	case 1:
		return append([]int32(nil), W...) // always everything
	case 2:
		// Random half, ignoring weights entirely.
		var out []int32
		for _, v := range W {
			if b.rng.Intn(2) == 0 {
				out = append(out, v)
			}
		}
		return out
	default:
		// A single arbitrary vertex.
		return []int32{W[b.rng.Intn(len(W))]}
	}
}

func TestDecomposeWithBrokenSplitter(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := workload.ClimateMesh(8, 8, 2, seed)
		res, err := Decompose(context.Background(), g, Options{
			K:        4,
			Splitter: &brokenSplitter{rng: rand.New(rand.NewSource(seed))},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Stats.StrictlyBalanced {
			t.Fatalf("seed %d: broken-splitter run not strictly balanced (dev %v bound %v, fallback=%v)",
				seed, res.Stats.MaxWeightDeviation, res.Stats.StrictBound, res.UsedFallback)
		}
	}
}

// Failure injection: a splitter returning vertices *outside* W would break
// the partition invariant; the oracle contract forbids it, but the paper's
// procedures never rely on it silently — CheckColoring in Decompose must
// catch any resulting corruption rather than return garbage.
type outOfSetSplitter struct{ inner splitter.Splitter }

func (o outOfSetSplitter) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	U := o.inner.Split(ctx, W, w, target)
	if len(U) > 0 {
		return U[:len(U)-1] // drop one element: still ⊆ W, weight off
	}
	return U
}

func TestDecomposeWithLossySplitter(t *testing.T) {
	g := workload.ClimateMesh(8, 8, 2, 3)
	res, err := Decompose(context.Background(), g, Options{
		K:        4,
		Splitter: outOfSetSplitter{inner: splitter.NewBFS(g)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckColoring(res.Coloring, 4); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("lossy-splitter run not strict")
	}
}

// Property: on a star (unbounded degree — NOT well-behaved), the pipeline
// still terminates with a strict coloring; the boundary bound does not
// apply, but safety must.
func TestDecomposeStar(t *testing.T) {
	g := graph.Star(100)
	res, err := Decompose(context.Background(), g, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("star not strict")
	}
}

// Property: zero-weight vertices are legal (‖w‖∞ from other vertices
// drives the window) and all-zero weights make any coloring strict.
func TestDecomposeZeroWeights(t *testing.T) {
	g := graph.Path(20)
	for v := range g.Weight {
		g.Weight[v] = 0
	}
	res, err := Decompose(context.Background(), g, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("zero weights should be trivially strict")
	}
	// Mixed: half zero.
	for v := range g.Weight {
		if v%2 == 0 {
			g.Weight[v] = 1
		}
	}
	res, err = Decompose(context.Background(), g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("mixed zero weights not strict")
	}
}

// Property: disconnected graphs (the G̃ construction) are handled by every
// stage.
func TestDecomposeDisconnected(t *testing.T) {
	g := graph.Disjoint(graph.Path(30), graph.Cycle(20), graph.RandomTree(25, 1))
	res, err := Decompose(context.Background(), g, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("disconnected instance not strict")
	}
}
