package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSubBasics(t *testing.T) {
	g := path(6)
	s := NewSub(g, []int32{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(2) || s.Contains(0) {
		t.Fatal("membership wrong")
	}
	if got := s.SizeWithin(); got != 5 { // 3 vertices, edges (1,2) and (2,3)
		t.Fatalf("SizeWithin = %v, want 5", got)
	}
}

// TestSubRelease pins the pooled membership: a view holds exactly its W,
// and a view made after a Release starts from its own W even when it
// reuses the released workspace.
func TestSubRelease(t *testing.T) {
	g := path(4)
	s := NewSub(g, []int32{0, 1})
	for v := int32(0); v < 4; v++ {
		if s.Contains(v) != (v < 2) {
			t.Fatalf("Contains(%d) = %v for W = {0, 1}", v, s.Contains(v))
		}
	}
	s.Release()
	for i := 0; i < 4; i++ {
		s = NewSub(g, []int32{3})
		if s.Contains(0) || s.Contains(1) || !s.Contains(3) {
			t.Fatal("a view made after a release kept a released member")
		}
		s.Release()
	}
}

// TestSubMarkWrap pins the epoch wrap of a view's traversal marks: a
// traversal that starts at the last epoch re-stamps W, then orders and
// tests membership exactly as before.
func TestSubMarkWrap(t *testing.T) {
	g := path(6)
	s := NewSub(g, []int32{1, 2, 3, 5})
	defer s.Release()
	want := s.MultiBFSOrder(nil, []int32{1, 5})
	s.in.epoch = math.MaxInt32
	if got := s.MultiBFSOrder(nil, []int32{1, 5}); !slices.Equal(got, want) {
		t.Fatalf("order after the wrap %v, want %v", got, want)
	}
	for v := int32(0); v < 6; v++ {
		if s.Contains(v) != (v != 0 && v != 4) {
			t.Fatalf("Contains(%d) = %v after the wrap", v, s.Contains(v))
		}
	}
}

// TestMarks pins the pooled mark set: it holds exactly what was marked,
// answers false past its range, and a set acquired after a release starts
// empty even when it reuses the released workspace.
func TestMarks(t *testing.T) {
	m := AcquireMarks(8)
	m.Mark(2)
	m.Mark(7)
	for v := int32(0); v < 8; v++ {
		if m.Has(v) != (v == 2 || v == 7) {
			t.Fatalf("Has(%d) = %v after marking 2 and 7", v, m.Has(v))
		}
	}
	if m.Has(1 << 20) {
		t.Fatal("Has past the range reported a mark")
	}
	m.Release()
	for i := 0; i < 4; i++ {
		m = AcquireMarks(8)
		if m.Has(2) || m.Has(7) {
			t.Fatal("a re-acquired set kept a released mark")
		}
		m.Release()
	}
}

func TestInducedCopy(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 4, 4)
	b.SetWeight(2, 7)
	g := b.MustBuild()
	s := NewSub(g, []int32{1, 2, 3})
	h, toOld := s.InducedCopy()
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("induced copy N=%d M=%d, want 3, 2", h.N(), h.M())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Weight carries over.
	found := false
	for newID, old := range toOld {
		if old == 2 {
			if h.Weight[newID] != 7 {
				t.Fatalf("weight of mapped vertex = %v, want 7", h.Weight[newID])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("vertex 2 not in mapping")
	}
	if got := h.TotalCost(); got != 5 {
		t.Fatalf("induced cost total = %v, want 5 (edges 2 and 3)", got)
	}
}

func TestBFSOrder(t *testing.T) {
	g := path(5)
	s := NewSub(g, AllVertices(g))
	order := s.MultiBFSOrder(nil, []int32{0})
	if len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Fatalf("BFS order wrong: %v", order)
	}
	// Restricted: BFS cannot cross outside W.
	s2 := NewSub(g, []int32{0, 1, 3, 4})
	order2 := s2.MultiBFSOrder(nil, []int32{0})
	if len(order2) != 2 {
		t.Fatalf("restricted BFS reached %d vertices, want 2", len(order2))
	}
}

// TestMultiBFSOrderStarts pins the start list of MultiBFSOrder: after the
// seeded traversal, each start not yet visited adds its component's BFS
// order, in start order, and visited starts add nothing.
func TestMultiBFSOrderStarts(t *testing.T) {
	g := path(7)
	s := NewSub(g, []int32{0, 1, 2, 4, 5, 6}) // components {0,1,2} and {4,5,6}
	for _, tc := range []struct {
		sources, starts, want []int32
	}{
		{[]int32{5}, []int32{2, 4, 0, 6}, []int32{5, 4, 6, 2, 1, 0}},
		{[]int32{6, 0}, []int32{1}, []int32{6, 0, 5, 1, 4, 2}},
		{nil, []int32{6, 0, 4}, []int32{6, 5, 4, 0, 1, 2}},
		{nil, nil, []int32{}},
	} {
		got := s.MultiBFSOrder(tc.sources, tc.starts)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("MultiBFSOrder(%v, %v) = %v, want %v", tc.sources, tc.starts, got, tc.want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := path(5)
	s := NewSub(g, []int32{0, 1, 3, 4})
	comps := s.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if !g.IsConnected() {
		t.Fatal("path should be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g2 := b.MustBuild()
	if g2.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if len(g2.Components()) != 2 {
		t.Fatal("wrong component count")
	}
}

func TestDegreeWithin(t *testing.T) {
	g := cycle(5)
	s := NewSub(g, []int32{0, 1, 2})
	if got := s.DegreeWithin(1); got != 2 {
		t.Fatalf("DegreeWithin(1) = %d, want 2", got)
	}
	if got := s.DegreeWithin(0); got != 1 {
		t.Fatalf("DegreeWithin(0) = %d, want 1 (edge to 4 outside)", got)
	}
}

func TestEmptyGraphConnected(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if !g.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
}

// Property: the sum of component weights equals the sub's weight.
func TestComponentsPartitionWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40, 20)
		var W []int32
		for v := int32(0); v < int32(g.N()); v++ {
			if rng.Intn(2) == 0 {
				W = append(W, v)
			}
		}
		s := NewSub(g, W)
		total := 0.0
		count := 0
		for _, comp := range s.Components() {
			count += len(comp)
			for _, v := range comp {
				total += g.Weight[v]
			}
		}
		if count != len(W) {
			t.Fatalf("components cover %d vertices, want %d", count, len(W))
		}
		if math.Abs(total-weightOf(g, W)) > 1e-9 {
			t.Fatalf("component weight %v != sub weight %v", total, weightOf(g, W))
		}
	}
}

// weightOf returns w(W).
func weightOf(g *Graph, W []int32) float64 {
	t := 0.0
	for _, v := range W {
		t += g.Weight[v]
	}
	return t
}
