package repro

// End-to-end checks of the one-shot Engine entry points (Partition,
// PartitionWithOptions, PartitionGrid) under the zero policy.

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/workload"
)

func TestPartitionGridEndToEnd(t *testing.T) {
	gr := grid.MustBox(16, 16)
	res, err := NewEngine().PartitionGrid(context.Background(), gr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("not strictly balanced")
	}
	if err := graph.CheckColoring(res.Coloring, 8); err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxBoundary <= 0 {
		t.Fatal("expected positive boundary for k=8 on a connected grid")
	}
}

func TestPartitionGrid1D(t *testing.T) {
	gr := grid.MustBox(64)
	res, err := NewEngine().PartitionGrid(context.Background(), gr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("1-D partition not strict")
	}
	// A path split into 4 contiguous-ish parts cuts few edges; each part's
	// boundary should be at most a handful of unit edges.
	if res.Stats.MaxBoundary > 8 {
		t.Fatalf("1-D max boundary %v too large", res.Stats.MaxBoundary)
	}
}

func TestPartitionMesh(t *testing.T) {
	mesh := workload.ClimateMesh(16, 16, 2, 3)
	res, err := NewEngine().Partition(context.Background(), mesh, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("mesh partition not strict")
	}
}

func TestPartitionWithOptionsAblation(t *testing.T) {
	mesh := workload.ClimateMesh(12, 12, 2, 4)
	eng := NewEngine()
	res, err := eng.PartitionWithOptions(context.Background(), mesh, Options{K: 4, SkipPolish: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("ablated partition not strict")
	}
	if _, err := eng.PartitionWithOptions(context.Background(), mesh, Options{K: 0}); err == nil {
		t.Fatal("expected K error")
	}
}
