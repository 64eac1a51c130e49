package splitter

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/workload"
)

// refineReference is the full-scan FM that refine's cached gains replaced:
// before every move it evaluates the gain of every unmoved vertex of W and
// takes the first admissible one of strictly greatest gain, in W order. It
// shares no state or helper with refine, so agreement between the two pins
// the cached gains, the candidate list and the tie rule.
func refineReference(ctx context.Context, g *graph.Graph, W, U []int32, w []float64, target float64, passes int) []int32 {
	inW := make([]bool, g.N())
	inU := make([]bool, g.N())
	moved := make([]bool, g.N())
	total, maxw := 0.0, 0.0
	for _, v := range W {
		inW[v] = true
		total += w[v]
		maxw = max(maxw, w[v])
	}
	target = min(max(target, 0), total)
	weightU := 0.0
	for _, v := range U {
		inU[v] = true
		weightU += w[v]
	}
	window := maxw/2 + 1e-12*(total+1)
	gain := func(v int32) float64 {
		sameSide, otherSide := 0.0, 0.0
		for _, e := range g.IncidentEdges(v) {
			o := g.Other(e, v)
			if !inW[o] {
				continue
			}
			if inU[o] == inU[v] {
				sameSide += g.Cost[e]
			} else {
				otherSide += g.Cost[e]
			}
		}
		return otherSide - sameSide
	}
	feasible := func(v int32) bool {
		nw := weightU + w[v]
		if inU[v] {
			nw = weightU - w[v]
		}
		d := nw - target
		return max(d, -d) <= window
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, v := range W {
			moved[v] = false
		}
		for {
			if ctx.Err() != nil {
				return nil
			}
			var best int32 = -1
			bestGain := 1e-12
			for _, v := range W {
				if moved[v] {
					continue
				}
				if gv := gain(v); gv > bestGain && feasible(v) {
					best, bestGain = v, gv
				}
			}
			if best < 0 {
				break
			}
			if inU[best] {
				weightU -= w[best]
			} else {
				weightU += w[best]
			}
			inU[best] = !inU[best]
			moved[best] = true
			improved = true
		}
		if !improved {
			break
		}
	}
	var out []int32
	for _, v := range W {
		if inU[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestRefinedParMatchesSequential pins refine against the full-scan
// reference: on every input, at every Par, the refined piece is byte-for-
// byte the reference's. The inputs cover the tie rule (unit costs, where
// gains tie everywhere, with W in id and in shuffled order), a weighted
// mesh, a disconnected W, zero weights, targets clamped from either side,
// a W above fmParCutoff, where the initial gain fill fans out, and U below
// |W|/fmSmallU, where it covers only U and its neighbours. Every input
// makes the reference move, so none of them agrees trivially.
func TestRefinedParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	unit := grid.MustBox(40, 30).G
	n := unit.N()
	mesh := workload.ClimateMesh(48, 48, 3, 7)
	big := workload.ClimateMesh(130, 130, 3, 11) // 16900 ≥ fmParCutoff vertices
	sparse := grid.MustBox(60, 45)
	var holes []int32 // every third row removed: 15 two-row strips
	for v := range sparse.G.N() {
		if sparse.Coord[v][1]%3 != 2 {
			holes = append(holes, int32(v))
		}
	}
	ids, shuffled := allVerts(n), allVerts(n)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	unitW, ones := randWeights(rng, n), make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	// scattered picks each vertex of W with probability p: a start piece
	// of isolated vertices and short runs, which FM reshapes at length.
	scattered := func(W []int32, p float64) []int32 {
		var U []int32
		for _, v := range W {
			if rng.Float64() < p {
				U = append(U, v)
			}
		}
		return U
	}
	// light is a handful of scattered vertices of W weighing at most 2, a
	// start inside the clamped window of a target below 0; its complement
	// is the same for a target above w(W).
	light, heavy := []int32{}, []int32{}
	lw := 0.0
	for _, v := range shuffled {
		if lw+unitW[v] <= 2 && len(light) < 4 {
			light, lw = append(light, v), lw+unitW[v]
		} else {
			heavy = append(heavy, v)
		}
	}
	spread, half, sparseU := scattered(ids, 0.3), scattered(ids, 0.5), scattered(ids, 0.05)
	holeW := randWeights(rng, sparse.G.N())
	evens := make([]int32, 0, n/2)
	for v := int32(0); v < int32(n); v += 2 {
		evens = append(evens, v)
	}

	weightOf := func(U []int32, w []float64) float64 {
		s := 0.0
		for _, v := range U {
			s += w[v]
		}
		return s
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		W, U   []int32 // a nil U takes the BFS prefix
		w      []float64
		target float64
	}{
		{"unit costs", unit, ids, spread, unitW, weightOf(spread, unitW)},
		{"unit costs, shuffled W", unit, shuffled, spread, unitW, weightOf(spread, unitW)},
		{"unit costs and weights", unit, shuffled, half, ones, float64(len(half)) + 0.5},
		{"climate mesh", mesh, allVerts(mesh.N()), nil, mesh.Weight, mesh.TotalWeight() / 2},
		{"disconnected W", sparse.G, holes, nil, holeW, 0.4 * weightOf(holes, holeW)},
		{"zero weights", unit, ids, evens, make([]float64, n), 0},
		{"target below 0", unit, shuffled, light, unitW, -100},
		{"target above w(W)", unit, shuffled, heavy, unitW, 2 * weightOf(ids, unitW)},
		{"above fmParCutoff", big, allVerts(big.N()), nil, big.Weight, big.TotalWeight() / 3},
		{"small U, climate mesh", mesh, allVerts(mesh.N()), nil, mesh.Weight, mesh.TotalWeight() / 20},
		{"small U, scattered", unit, shuffled, sparseU, unitW, weightOf(sparseU, unitW)},
		{"small U, disconnected W", sparse.G, holes, nil, holeW, 0.05 * weightOf(holes, holeW)},
		{"small U, above fmParCutoff", big, allVerts(big.N()), nil, big.Weight, big.TotalWeight() / 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			U := tc.U
			if U == nil {
				U = NewBFS(tc.g).Split(context.Background(), tc.W, tc.w, tc.target)
			}
			if strings.HasPrefix(tc.name, "small U") && fmSmallU*len(U) >= len(tc.W) {
				t.Fatalf("|U| = %d is not small against |W| = %d: the case misses the fill around U", len(U), len(tc.W))
			}
			want := refineReference(context.Background(), tc.g, tc.W, U, tc.w, tc.target, 4)
			if !CheckWindow(want, tc.W, tc.w, tc.target) {
				t.Fatal("reference refinement left the window")
			}
			if slices.Equal(sortedCopy(want), sortedCopy(U)) {
				t.Fatal("reference made no move: the case pins nothing")
			}
			for _, par := range []int{1, 2, 4, 8} {
				poisonFM(tc.g.N(), len(tc.W))
				if got := refine(context.Background(), tc.g, tc.W, U, tc.w, tc.target, 4, par); !slices.Equal(got, want) {
					t.Fatalf("par=%d: refined piece (|U| = %d) differs from the reference's (|U| = %d)", par, len(got), len(want))
				}
				if tc.U != nil {
					continue
				}
				sp := NewRefined(tc.g, NewBFS(tc.g))
				sp.Par = par
				if got := sp.Split(context.Background(), tc.W, tc.w, tc.target); !slices.Equal(got, want) {
					t.Fatalf("par=%d: Refined.Split differs from the reference", par)
				}
			}
		})
	}

	// A done ctx yields nil, from refine itself and through Split.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	W, target := allVerts(big.N()), big.TotalWeight()/3
	U := NewBFS(big).Split(context.Background(), W, big.Weight, target)
	for _, par := range []int{1, 2, 4, 8} {
		if got := refine(ctx, big, W, U, big.Weight, target, 4, par); got != nil {
			t.Fatalf("par=%d: cancelled refine returned a piece of %d vertices", par, len(got))
		}
		sp := NewRefined(big, NewBFS(big))
		sp.Par = par
		if got := sp.Split(ctx, W, big.Weight, target); got != nil {
			t.Fatalf("par=%d: cancelled Split returned a piece of %d vertices", par, len(got))
		}
	}
}

// fillSink keeps BenchmarkRefineFill's refine calls observable.
var fillSink []int32

// BenchmarkRefineFill times refine with zero passes — the pooled
// workspace, the membership stamps and the initial gain fill, nothing
// else — on whole climate meshes straddling fmParCutoff, at Par 1 and 2.
// Below the cutoff both settings fill sequentially; EXPERIMENTS.md has
// the run with the cutoff lowered that places the crossover.
func BenchmarkRefineFill(b *testing.B) {
	for _, side := range []int{32, 45, 64, 90, 128, 181, 256} {
		g := workload.ClimateMesh(side, side, 3, 7)
		W, target := allVerts(g.N()), g.TotalWeight()/2
		U := NewBFS(g).Split(context.Background(), W, g.Weight, target)
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("W=%d/par=%d", len(W), par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fillSink = refine(context.Background(), g, W, U, g.Weight, target, 0, par)
				}
			})
		}
	}
}

// BenchmarkRefineFillSmallU times refine with zero passes where U is a
// BFS prefix of 1/r of W's weight, at Par 2, on a climate mesh below
// fmParCutoff (90², sequential full fill) and one above it (224², the
// direct workload's meshes, parallel full fill). Which fill runs follows
// fmSmallU; EXPERIMENTS.md has the runs with the rule forced either way
// that place the crossover.
func BenchmarkRefineFillSmallU(b *testing.B) {
	for _, side := range []int{90, 224} {
		g := workload.ClimateMesh(side, side, 3, 7)
		W := allVerts(g.N())
		for _, r := range []int{2, 3, 4, 6, 8, 16, 64} {
			target := g.TotalWeight() / float64(r)
			U := NewBFS(g).Split(context.Background(), W, g.Weight, target)
			b.Run(fmt.Sprintf("W=%d/r=%d", len(W), r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fillSink = refine(context.Background(), g, W, U, g.Weight, target, 0, 2)
				}
			})
		}
	}
}

// poisonFM fills a pooled workspace's slot arrays with values no refine
// call may read before writing: a NaN gain and both flags set. The next
// acquisition on this goroutine usually returns it, so a gain the initial
// fill missed shows as a differing piece instead of a stale gain left by
// the previous call on the same input.
func poisonFM(n, m int) {
	s := acquireFM(n, m)
	for i := range s.gain {
		s.gain[i] = math.NaN()
		s.flags[i] = slotMoved | slotOnList
	}
	releaseFM(s)
}

func sortedCopy(s []int32) []int32 {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}
