package splitter

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/grid"
)

// TestPrefixSplittersMatchFullOrder pins the streamed prefix oracles to
// the full orders they stop early on: NewBFS's piece must be
// BestPrefix(BFSOrder(G, W), w, target) and a Warm piece
// BestPrefix(warmOrder(G, prior, W), w, target), element for element and
// nil exactly when the reference is nil, and Warm must count a hit exactly
// when warmOrder finds a frontier. The inputs cover sorted, shuffled,
// duplicated and disconnected W; weights with zeros, all zero, and a
// negative, NaN or infinite entry (which take the full-order path);
// targets below 0, tiny, one chunk (the Claim 4 target), half, at and
// above the total, and NaN; and priors whose frontier holds the prefix,
// is outrun by it, or is missing.
func TestPrefixSplittersMatchFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gr := grid.MustBox(36, 24)
	g := gr.G
	n := g.N()

	all := allVerts(n)
	var subset, strips []int32
	for v := range n {
		if rng.Intn(4) > 0 {
			subset = append(subset, int32(v))
		}
		if gr.Coord[v][1]%3 != 2 || v%11 == 0 { // two-row strips and isolated vertices
			strips = append(strips, int32(v))
		}
	}
	shuffled := slices.Clone(subset)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dups := append(slices.Clone(shuffled[:200]), shuffled[:40]...)
	// blocks colors the grid in 6×4-cell blocks of three classes; class 1
	// is a W whose frontier is its border, the shape of a Claim 4 call.
	blocks := make([]int32, n)
	var class1 []int32
	for v := range n {
		x, y := gr.Coord[v][0], gr.Coord[v][1]
		blocks[v] = (x/6 + y/4) % 3
		if blocks[v] == 1 {
			class1 = append(class1, int32(v))
		}
	}
	halves := priorHalves(n)
	partial := slices.Clone(blocks) // a third of the vertices uncolored
	for v := range partial {
		if v%3 == 0 {
			partial[v] = -1
		}
	}
	flat := make([]int32, n) // one class: no frontier anywhere

	sets := []struct {
		name string
		W    []int32
	}{
		{"sorted", all}, {"sorted subset", subset}, {"shuffled", shuffled},
		{"duplicates", dups}, {"disconnected", strips}, {"one class", class1},
		{"empty", nil},
	}
	positive := randWeights(rng, n)
	zeros := slices.Clone(positive)
	for v := range zeros {
		if v%5 == 0 {
			zeros[v] = 0
		}
	}
	// withVal sets x at a vertex in the middle of the grid and at the last
	// vertex of the sorted set's BFS order, where a negative weight makes
	// earlier running sums exceed the total.
	withVal := func(x float64) []float64 {
		w := slices.Clone(positive)
		w[n/2+3], w[n-1] = x, x
		return w
	}
	weights := []struct {
		name string
		w    []float64
	}{
		{"positive", positive}, {"some zero", zeros}, {"all zero", make([]float64, n)},
		{"negative", withVal(-2)}, {"NaN", withVal(math.NaN())}, {"infinite", withVal(math.Inf(1))},
	}
	priors := []struct {
		name  string
		prior []int32
	}{
		{"halves", halves}, {"blocks", blocks}, {"partial", partial}, {"flat", flat},
	}

	// The sets run as parallel subtests, so pooled traversal scratch is in
	// use by several streams at once (the race step in CI repeats them).
	ctx := context.Background()
	for _, ws := range sets {
		t.Run(ws.name, func(t *testing.T) {
			t.Parallel()
			for _, wt := range weights {
				total, maxw := 0.0, 0.0
				for _, v := range ws.W {
					total += wt.w[v]
					maxw = max(maxw, wt.w[v])
				}
				targets := []float64{-1, 1e-9, 0.75 * maxw, total / 2, total, 2 * total, math.NaN()}
				for _, target := range targets {
					name := fmt.Sprintf("%s/target %v", wt.name, target)
					want := BestPrefix(BFSOrder(g, ws.W), wt.w, target)
					got := NewBFS(g).Split(ctx, ws.W, wt.w, target)
					samePiece(t, name+"/bfs", got, want)
					for _, pr := range priors {
						warm := NewWarm(g, NewBFS(g), pr.prior)
						order := warmOrder(g, pr.prior, ws.W)
						want, hits := NewBFS(g).Split(ctx, ws.W, wt.w, target), int64(0)
						if order != nil {
							want, hits = BestPrefix(order, wt.w, target), 1
						}
						got := warm.Split(ctx, ws.W, wt.w, target)
						samePiece(t, name+"/warm "+pr.name, got, want)
						if warm.Hits() != hits {
							t.Fatalf("%s/warm %s: %d hits, want %d", name, pr.name, warm.Hits(), hits)
						}
					}
				}
			}
		})
	}
}

// samePiece fails unless got and want hold the same vertices in the same
// order and are both nil or both non-nil.
func samePiece(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: piece of %d vertices (nil %v), want %d (nil %v)", name, len(got), got == nil, len(want), want == nil)
	}
}

// TestPrefixSplitAllocations bounds what a small piece of a large W
// allocates: a 16-vertex prefix of a 2^16-vertex W must cost fewer bytes
// than W has vertices, through the cold BFS oracle, through Warm (whose
// two-vertex frontier the prefix outruns, so it goes on to traverse G[W]),
// and through the default FM-refined oracle around each. Ordering all of
// W, as the oracles did, allocates a sorted copy and a |W|-long order.
func TestPrefixSplitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops workspaces; see raceEnabled")
	}
	const n = 1 << 16
	g := pathGraph(n)
	W := allVerts(n)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	for _, tc := range []struct {
		name  string
		sp    Splitter
		first int32
	}{
		{"bfs", NewBFS(g), 0},
		{"warm", NewWarm(g, NewBFS(g), priorHalves(n)), n/2 - 1},
		{"refined bfs", NewRefined(g, NewBFS(g)), 0},
		{"refined warm", NewRefined(g, NewWarm(g, NewBFS(g), priorHalves(n))), -1},
	} {
		U := tc.sp.Split(context.Background(), W, w, 16)
		if len(U) != 16 || tc.first >= 0 && U[0] != tc.first {
			t.Fatalf("%s: piece %v, want 16 vertices from %d", tc.name, U, tc.first)
		}
		const calls = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			tc.sp.Split(context.Background(), W, w, 16)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= n {
			t.Fatalf("%s: a 16-vertex piece allocates %d bytes, want < N = %d", tc.name, got, n)
		}
	}
}
