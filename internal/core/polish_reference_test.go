package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// polishReference is the trial-and-revert polish pass that read-only swap
// scoring replaced, kept as the equivalence oracle for polish. It scores
// each swap candidate by applying both moves and reading cb, and reverts a
// rejected trial by applying the two inverse moves. Two changes make it
// exact where the old pass drifted: a rejected trial restores the pair's
// cb and cw entries (the only ones a trial touches) from snapshots, and
// every global round starts from a fresh ClassBoundaryCosts. The border
// scan is the plain sequential one.
func (c *ctx) polishReference(chi []int32, k, rounds int, dirty []int32) []int32 {
	if k <= 1 || rounds <= 0 {
		return append([]int32(nil), chi...)
	}
	ps := c.newPolishState(chi, k, dirty)
	ps.cb = c.g.ClassBoundaryCosts(chi, k)
	for round := 0; round < rounds; round++ {
		if !ps.referenceRound() {
			break
		}
	}
	return ps.out
}

func (ps *polishState) referenceRound() bool {
	g := ps.c.g
	k := ps.k
	if ps.active == nil {
		ps.cb = g.ClassBoundaryCosts(ps.out, k)
	}
	maxB := maxOf(ps.cb)
	if maxB <= 0 {
		return false
	}
	border := make([][]int32, k)
	isBorder := make([]bool, g.N())
	if ps.active == nil {
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(int32(e))
			if ps.out[u] != ps.out[v] {
				for _, x := range []int32{u, v} {
					if !isBorder[x] {
						isBorder[x] = true
						border[ps.out[x]] = append(border[ps.out[x]], x)
					}
				}
			}
		}
	} else {
		for _, x := range ps.activeList {
			for _, e := range g.IncidentEdges(x) {
				if ps.out[g.Other(e, x)] != ps.out[x] {
					isBorder[x] = true
					border[ps.out[x]] = append(border[ps.out[x]], x)
					break
				}
			}
		}
	}
	improved := false
	for donor := int32(0); donor < int32(k); donor++ {
		if ps.cb[donor] < 0.75*maxB {
			continue
		}
		for _, v := range border[donor] {
			if ps.out[v] != donor {
				continue
			}
			perClass := make([]float64, k)
			var touched []int32
			for _, e := range g.IncidentEdges(v) {
				if cls := ps.out[g.Other(e, v)]; cls != donor {
					if !slices.Contains(touched, cls) {
						touched = append(touched, cls)
					}
					perClass[cls] += g.Cost[e]
				}
			}
			var best int32 = -1
			bestCost := 0.0
			for _, cls := range touched {
				c := perClass[cls]
				if c > bestCost || (c == bestCost && best >= 0 && cls < best) {
					best, bestCost = cls, c
				}
			}
			if best < 0 {
				continue
			}
			dDonor, dBest := ps.moveDelta(v, best, -1)
			if dDonor >= -1e-12 {
				continue
			}
			if ps.weightOK(ps.cw[donor]-g.Weight[v]) &&
				ps.weightOK(ps.cw[best]+g.Weight[v]) &&
				ps.cb[best]+dBest < maxB-1e-12 {
				ps.applyMove(v, best)
				improved = true
				continue
			}
			if ps.referenceTrySwap(v, best, border[best], maxB) {
				improved = true
			}
		}
	}
	return improved
}

func (ps *polishState) referenceTrySwap(v, to int32, candidates []int32, maxB float64) bool {
	g := ps.c.g
	donor := ps.out[v]
	oldDonor, oldTo := ps.cb[donor], ps.cb[to]
	oldPair := oldDonor
	if oldTo > oldPair {
		oldPair = oldTo
	}
	wDonor, wTo := ps.cw[donor], ps.cw[to]
	for _, x := range candidates {
		if ps.out[x] != to || x == v {
			continue
		}
		dw := g.Weight[x] - g.Weight[v]
		if !ps.weightOK(ps.cw[donor]+dw) || !ps.weightOK(ps.cw[to]-dw) {
			continue
		}
		ps.applyMove(v, to)
		ps.applyMove(x, donor)
		newPair := ps.cb[donor]
		if ps.cb[to] > newPair {
			newPair = ps.cb[to]
		}
		if newPair < oldPair-1e-12 && ps.cb[donor] < maxB && ps.cb[to] < maxB {
			return true
		}
		ps.applyMove(x, to)
		ps.applyMove(v, donor)
		ps.cb[donor], ps.cb[to] = oldDonor, oldTo
		ps.cw[donor], ps.cw[to] = wDonor, wTo
	}
	return false
}

// polishCase is one input of the polish equivalence tests: a graph, a
// starting coloring and the class count.
type polishCase struct {
	name string
	g    *graph.Graph
	chi  []int32
	k    int
}

// polishCases returns the equivalence inputs: the strict colorings of
// SkipPolish runs on seeded 256² ClimateMeshes at k = 16 (large enough that
// the parallel border scan fans out), the same colorings scattered by
// exchanging the classes of vertices of near-equal weight, and unit-weight
// grids, where strict balance allows swaps only, started from scattered
// colorings and from the strict colorings of SkipPolish runs.
func polishCases(t *testing.T) []polishCase {
	t.Helper()
	if cachedPolishCases != nil {
		return cachedPolishCases
	}
	var cases []polishCase
	for seed := int64(1); seed <= 2; seed++ {
		g := workload.ClimateMesh(256, 256, 4, seed)
		if g.M() < borderParCutoff {
			t.Fatalf("mesh has %d edges, below the parallel scan cutoff %d", g.M(), borderParCutoff)
		}
		const k = 16
		res, err := Decompose(context.Background(), g, Options{K: k, SkipPolish: true, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, polishCase{fmt.Sprintf("mesh256/seed%d", seed), g, res.Coloring, k})
		// Exchange the classes of vertices adjacent in weight order: the
		// coloring scatters but its class weights barely move, so it stays
		// strictly balanced and the pass has many moves and swaps to make.
		rng := rand.New(rand.NewSource(seed))
		byWeight := graph.AllVertices(g)
		slices.SortStableFunc(byWeight, func(a, b int32) int { return cmp.Compare(g.Weight[a], g.Weight[b]) })
		exchanged := append([]int32(nil), res.Coloring...)
		for i := 0; i+1 < len(byWeight); i += 2 {
			if rng.Intn(20) == 0 {
				a, b := byWeight[i], byWeight[i+1]
				exchanged[a], exchanged[b] = exchanged[b], exchanged[a]
			}
		}
		if !graph.IsStrictlyBalanced(g, exchanged, k) {
			t.Fatalf("seed %d: the exchanged coloring is not strictly balanced", seed)
		}
		cases = append(cases, polishCase{fmt.Sprintf("mesh256/seed%d/exchanged", seed), g, exchanged, k})
	}
	for i, k := range []int{4, 6, 9} {
		_, g := gridGraph(t, 36, 36)
		rng := rand.New(rand.NewSource(int64(10 + i)))
		chi := make([]int32, g.N())
		for j, v := range rng.Perm(g.N()) {
			chi[v] = int32(j * k / g.N())
		}
		cases = append(cases, polishCase{fmt.Sprintf("grid36/scattered/k%d", k), g, chi, k})
		res, err := Decompose(context.Background(), g, Options{K: k, SkipPolish: true})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, polishCase{fmt.Sprintf("grid36/strict/k%d", k), g, res.Coloring, k})
	}
	cachedPolishCases = cases
	return cases
}

// cachedPolishCases holds polishCases' inputs, which neither test mutates,
// so that repeated runs (-count) build the meshes and colorings once.
var cachedPolishCases []polishCase

// polishCtx returns a run context for polish at the given parallelism.
// Polish reads no π, so the context carries a zero one instead of paying
// for the sweep.
func polishCtx(t testing.TB, g *graph.Graph, k, par int) *ctx {
	t.Helper()
	c, err := newCtx(context.Background(), g, Options{K: k, Parallelism: par}, make([]float64, g.N()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPolishMatchesTrialReference pins the read-only swap scoring to the
// trial-and-revert pass it replaced: the same coloring, byte for byte, at
// Parallelism 1 and 2, on the global path and on the localized path with
// an empty and a non-empty dirty set.
func TestPolishMatchesTrialReference(t *testing.T) {
	const rounds = 6
	for _, tc := range polishCases(t) {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		dirty := make([]int32, 0, tc.g.N()/8)
		for v := 0; v < tc.g.N(); v++ {
			if rng.Intn(8) == 0 {
				dirty = append(dirty, int32(v))
			}
		}
		for _, d := range []struct {
			name  string
			dirty []int32
		}{{"global", nil}, {"empty", []int32{}}, {"dirty", dirty}} {
			want := polishCtx(t, tc.g, tc.k, 1).polishReference(tc.chi, tc.k, rounds, d.dirty)
			if d.dirty == nil && slices.Equal(want, tc.chi) {
				t.Fatalf("%s: the reference pass moved nothing; the case tests nothing", tc.name)
			}
			for _, par := range []int{1, 2} {
				got := polishCtx(t, tc.g, tc.k, par).polish(tc.chi, tc.k, rounds, d.dirty)
				if !slices.Equal(got, want) {
					diff := 0
					for v := range got {
						if got[v] != want[v] {
							diff++
						}
					}
					t.Fatalf("%s/%s par %d: polish differs from the trial-and-revert reference at %d vertices",
						tc.name, d.name, par, diff)
				}
			}
		}
	}
}

// TestPolishRoundsStartFromExactBoundaries drives the global pass round by
// round, as polish does, and checks that each round decides from class
// boundaries bit-identical to a fresh ClassBoundaryCosts, at Parallelism 1
// and 2, and that the rounds end where polish ends.
func TestPolishRoundsStartFromExactBoundaries(t *testing.T) {
	const rounds = 6
	for _, tc := range polishCases(t) {
		for _, par := range []int{1, 2} {
			c := polishCtx(t, tc.g, tc.k, par)
			ps := c.newPolishState(tc.chi, tc.k, nil)
			for round := 0; round < rounds; round++ {
				border := ps.borders()
				want := tc.g.ClassBoundaryCosts(ps.out, tc.k)
				for cls := range want {
					if math.Float64bits(ps.cb[cls]) != math.Float64bits(want[cls]) {
						t.Fatalf("%s par %d round %d: cb[%d] = %v, ClassBoundaryCosts %v",
							tc.name, par, round, cls, ps.cb[cls], want[cls])
					}
				}
				if !ps.sweep(border) {
					break
				}
			}
			if want := c.polish(tc.chi, tc.k, rounds, nil); !slices.Equal(ps.out, want) {
				t.Fatalf("%s par %d: the round-by-round pass ended away from polish", tc.name, par)
			}
		}
	}
}
