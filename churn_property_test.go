package repro

// Property tests for topology-mutation deltas: over random interleaved
// weight+topology chains, every Repartition step must stay Verify-clean
// and strictly balanced while tracking from-scratch quality, and
// Delta.Apply's canonical composition order (remove edges → remove
// vertices → add vertices → add edges → Weights → Set → Scale) is pinned
// against an independent from-scratch materialization oracle.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// churnScratchTol bounds served-vs-scratch max boundary along mutation
// chains. Topology churn has no warm prior for inserted vertices (they
// adopt a class greedily before refinement), so the window is wider than
// the pure-drift 1.8 — 2.0 is the bar the serving layer advertises.
const churnScratchTol = 2.0

// randomTopologyDelta builds a valid mutation against g: a few removals,
// up to two inserted vertices stitched onto live ones, an edge dropped
// and an edge added between live non-adjacent vertices, plus scattered
// Scale entries in stable addressing (only on vertices the delta keeps).
func randomTopologyDelta(rng *rand.Rand, g *graph.Graph) Delta {
	n := int32(g.N())
	var d Delta
	removed := make(map[int32]bool)
	if g.N() > 30 {
		for i, cnt := 0, 1+rng.Intn(3); i < cnt; i++ {
			v := int32(rng.Intn(int(n)))
			if !removed[v] {
				removed[v] = true
				d.RemoveVertices = append(d.RemoveVertices, v)
			}
		}
	}
	liveBase := func() int32 {
		for {
			if v := int32(rng.Intn(int(n))); !removed[v] {
				return v
			}
		}
	}
	edgeAdded := make(map[[2]int32]bool)
	addEdge := func(u, v int32, cost float64) {
		if u > v {
			u, v = v, u
		}
		if u == v || edgeAdded[[2]int32{u, v}] {
			return
		}
		edgeAdded[[2]int32{u, v}] = true
		d.AddEdges = append(d.AddEdges, EdgeChange{U: u, V: v, Cost: cost})
	}
	for i, cnt := 0, rng.Intn(3); i < cnt; i++ {
		nv := n + int32(len(d.AddVertices))
		d.AddVertices = append(d.AddVertices, 0.5+2*rng.Float64())
		addEdge(liveBase(), nv, 1+rng.Float64())
		addEdge(liveBase(), nv, 1+rng.Float64())
	}
	// One new edge between live, non-adjacent base vertices.
	for probe := 0; probe < 16; probe++ {
		u, v := liveBase(), liveBase()
		if u != v && g.FindEdge(u, v) < 0 {
			addEdge(u, v, 0.5+rng.Float64())
			break
		}
	}
	// One dropped base edge between surviving endpoints.
	for probe := 0; probe < 32 && g.M() > 0; probe++ {
		u, v := g.Endpoints(int32(rng.Intn(g.M())))
		if !removed[u] && !removed[v] {
			d.RemoveEdges = append(d.RemoveEdges, EdgeChange{U: u, V: v})
			break
		}
	}
	// Scattered rescales over surviving and inserted vertices.
	for i, cnt := 0, rng.Intn(5); i < cnt; i++ {
		var s int32
		if len(d.AddVertices) > 0 && rng.Intn(3) == 0 {
			s = n + int32(rng.Intn(len(d.AddVertices)))
		} else {
			s = liveBase()
		}
		d.Scale = append(d.Scale, WeightChange{V: s, W: []float64{0.5, 0.8, 1.5, 2}[rng.Intn(4)]})
	}
	return d
}

// oracleApplyDelta materializes d against g from scratch, in the
// documented canonical order, sharing nothing with Delta.Apply: the
// stable-address mapping (survivors below the cut keep ids, tail
// survivors fill freed slots ascending, inserts from the cut up) is
// re-derived here and the graph is rebuilt edge list first.
func oracleApplyDelta(g *graph.Graph, d Delta) (*graph.Graph, error) {
	n := g.N()
	removed := make([]bool, n)
	for _, v := range d.RemoveVertices {
		removed[v] = true
	}
	cut := n - len(d.RemoveVertices)
	o2n := make([]int32, n)
	var slots []int32
	for v := 0; v < cut; v++ {
		if removed[v] {
			slots = append(slots, int32(v))
		}
	}
	for v, si := 0, 0; v < n; v++ {
		switch {
		case removed[v]:
			o2n[v] = -1
		case v < cut:
			o2n[v] = int32(v)
		default:
			o2n[v] = slots[si]
			si++
		}
	}
	stable := func(s int32) (int32, error) {
		if int(s) < n {
			if o2n[s] < 0 {
				return -1, fmt.Errorf("oracle: stable id %d was removed", s)
			}
			return o2n[s], nil
		}
		if int(s)-n >= len(d.AddVertices) {
			return -1, fmt.Errorf("oracle: stable id %d out of range", s)
		}
		return int32(cut) + s - int32(n), nil
	}

	newN := cut + len(d.AddVertices)
	w := make([]float64, newN)
	for v := 0; v < n; v++ {
		if o2n[v] >= 0 {
			w[o2n[v]] = g.Weight[v]
		}
	}
	copy(w[cut:], d.AddVertices)

	drop := make(map[[2]int32]bool)
	for _, e := range d.RemoveEdges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		drop[[2]int32{u, v}] = true
	}
	b := graph.NewBuilder(newN)
	us, vs, cs := g.SortedEdgeList()
	for i := range us {
		u, v := us[i], vs[i]
		if u > v {
			u, v = v, u
		}
		if drop[[2]int32{u, v}] || o2n[u] < 0 || o2n[v] < 0 {
			continue
		}
		b.AddEdge(o2n[u], o2n[v], cs[i])
	}
	for _, e := range d.AddEdges {
		nu, err := stable(e.U)
		if err != nil {
			return nil, err
		}
		nv, err := stable(e.V)
		if err != nil {
			return nil, err
		}
		b.AddEdge(nu, nv, e.Cost)
	}

	// Weight forms after topology, in Weights → Set → Scale order.
	if d.Weights != nil {
		if len(d.Weights) != n+len(d.AddVertices) {
			return nil, fmt.Errorf("oracle: Weights length %d, want %d", len(d.Weights), n+len(d.AddVertices))
		}
		for s, wt := range d.Weights {
			if int32(s) < int32(n) && removed[s] {
				continue
			}
			nv, err := stable(int32(s))
			if err != nil {
				return nil, err
			}
			w[nv] = wt
		}
	}
	for _, u := range d.Set {
		nv, err := stable(u.V)
		if err != nil {
			return nil, err
		}
		w[nv] = u.W
	}
	for _, u := range d.Scale {
		nv, err := stable(u.V)
		if err != nil {
			return nil, err
		}
		w[nv] *= u.W
	}
	b.SetWeights(w)
	return b.Build()
}

// Property: Delta.Apply agrees exactly — content hash, so vertex count,
// weights, and sorted edge list — with the from-scratch oracle, across
// random mutations that mix every delta form. This pins the canonical
// composition order: any reordering (weights before removal, adds before
// removes) changes the oracle result on these inputs.
func TestDeltaApplyMatchesCompositionOracle(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := workload.ClimateMesh(5+rng.Intn(6), 5+rng.Intn(6), 2, seed)
		d := randomTopologyDelta(rng, g)
		// Every third seed adds a full Weights replacement under the
		// mutation, exercising the Weights→Set→Scale ordering too.
		if seed%3 == 0 {
			w := make([]float64, g.N()+len(d.AddVertices))
			for v := range w {
				w[v] = 0.5 + 3*rng.Float64()
			}
			d.Weights = w
		}
		ap, err := d.Apply(g)
		if err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		want, err := oracleApplyDelta(g, d)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if got, exp := graph.ContentHash(ap.Graph), graph.ContentHash(want); got != exp {
			t.Fatalf("seed %d: Apply hash %s != oracle hash %s (delta %+v)", seed, got, exp, d)
		}
		// The incremental digest patch must agree with both.
		if got := graph.NewContentDigest(g).Patch(ap.Topo).HashWeights(ap.Graph.Weight); got != graph.ContentHash(want) {
			t.Fatalf("seed %d: patched digest %s != oracle hash", seed, got)
		}
	}
}

// Property: along a random chain interleaving weight drifts and topology
// mutations, every Instance.Repartition result is Verify-clean, strictly
// balanced (the Definition 1 window), within churnScratchTol of a
// from-scratch run on the mutated graph, and the session hash always
// equals the canonical content hash of the current graph.
func TestRepartitionChurnChainProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.ClimateMesh(6+rng.Intn(6), 6+rng.Intn(6), 2, seed)
		k := 2 + rng.Intn(5)
		opt := Options{K: k}
		eng := NewEngine()
		inst, err := eng.NewInstance(g, opt)
		if err != nil {
			t.Logf("seed %d: NewInstance: %v", seed, err)
			return false
		}
		if _, err := inst.Partition(context.Background()); err != nil {
			t.Logf("seed %d: initial partition: %v", seed, err)
			return false
		}
		steps := 2 + rng.Intn(3)
		for s := 0; s < steps; s++ {
			var d Delta
			if rng.Intn(2) == 0 {
				d = randomTopologyDelta(rng, inst.Graph())
			} else {
				// Weight-only drift: sparse multiplicative hotspots.
				for i, cnt := 0, 1+rng.Intn(6); i < cnt; i++ {
					d.Scale = append(d.Scale, WeightChange{
						V: int32(rng.Intn(inst.Graph().N())),
						W: []float64{0.25, 0.5, 2, 4}[rng.Intn(4)],
					})
				}
			}
			res, err := inst.Repartition(context.Background(), d)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, s, err)
				return false
			}
			g2 := inst.Graph()
			if len(res.Coloring) != g2.N() {
				t.Logf("seed %d step %d: coloring length %d on %d vertices", seed, s, len(res.Coloring), g2.N())
				return false
			}
			if v := Verify(g2, opt, res, 20); !v.OK() {
				t.Logf("seed %d step %d: verify: %v", seed, s, v.Errors)
				return false
			}
			if !res.Stats.StrictlyBalanced {
				t.Logf("seed %d step %d: not strictly balanced (dev %g > %g)",
					seed, s, res.Stats.MaxWeightDeviation, res.Stats.StrictBound)
				return false
			}
			if inst.Hash() != graph.ContentHash(g2) {
				t.Logf("seed %d step %d: session hash %s != canonical %s", seed, s, inst.Hash(), graph.ContentHash(g2))
				return false
			}
			scratch, err := eng.PartitionWithOptions(context.Background(), g2, opt)
			if err != nil {
				t.Logf("seed %d step %d: scratch: %v", seed, s, err)
				return false
			}
			if scratch.Stats.MaxBoundary > 0 &&
				res.Stats.MaxBoundary > churnScratchTol*scratch.Stats.MaxBoundary {
				t.Logf("seed %d step %d: churn boundary %g > %g× scratch %g",
					seed, s, res.Stats.MaxBoundary, churnScratchTol, scratch.Stats.MaxBoundary)
				return false
			}
		}
		if len(inst.History()) != steps {
			t.Logf("seed %d: history length %d after %d steps", seed, len(inst.History()), steps)
			return false
		}
		return true
	}
	for seed := int64(1); seed <= 200; seed++ {
		if !check(seed) {
			t.Fatalf("churn-chain property failed at seed %d (see log)", seed)
		}
	}
}
