package repro

// These tests pin Engine.Batch's fan-out semantics: indexing, the
// *BatchError aggregation, the nil-Splitter guard and Observer
// forwarding. Cancellation-specific Batch behavior lives in
// cancel_test.go.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/splitter"
	"repro/internal/workload"
)

func TestPartitionBatchMatchesIndividualRuns(t *testing.T) {
	gs := make([]*graph.Graph, 6)
	for i := range gs {
		gs[i] = workload.ClimateMesh(16, 16, 3, int64(i+1))
	}
	eng, ctx := NewEngine(), context.Background()
	opt := Options{K: 8, Parallelism: 4}
	batch, err := eng.Batch(ctx, gs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(gs) {
		t.Fatalf("got %d results for %d instances", len(batch), len(gs))
	}
	for i, g := range gs {
		solo, err := eng.PartitionWithOptions(ctx, g, Options{K: 8, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Coloring, solo.Coloring) {
			t.Fatalf("instance %d: batch coloring differs from standalone run", i)
		}
		if !reflect.DeepEqual(batch[i].Stats, solo.Stats) {
			t.Fatalf("instance %d: batch stats differ from standalone run", i)
		}
		if !batch[i].Stats.StrictlyBalanced {
			t.Fatalf("instance %d: batch result not strictly balanced", i)
		}
	}
}

func TestPartitionBatchErrors(t *testing.T) {
	gs := []*graph.Graph{workload.ClimateMesh(8, 8, 2, 1)}
	eng, ctx := NewEngine(), context.Background()
	if _, err := eng.Batch(ctx, gs, Options{K: 0}); err == nil {
		t.Fatal("expected K error to propagate from batch instances")
	} else if !strings.Contains(err.Error(), "instance 0") {
		t.Fatalf("error %q does not identify the failing instance", err)
	}
	if _, err := eng.Batch(ctx, gs, Options{K: 2, Splitter: splitter.NewBFS(gs[0])}); err == nil {
		t.Fatal("expected rejection of a shared Splitter in batch mode")
	}
	if rs, err := eng.Batch(ctx, nil, Options{K: 4}); err != nil || len(rs) != 0 {
		t.Fatalf("empty batch: got %d results, err %v", len(rs), err)
	}
	// Negative parallelism follows the Options contract: sequential, not
	// GOMAXPROCS fan-out, and still produces the standard result.
	rs, err := eng.Batch(ctx, gs, Options{K: 2, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Stats.StrictlyBalanced {
		t.Fatal("sequential batch result not strictly balanced")
	}
}

func TestPartitionBatchAggregatesErrors(t *testing.T) {
	// Invalid P fails every instance; the aggregate must carry one indexed
	// slot per instance so callers can tell exactly which runs failed.
	gs := []*graph.Graph{
		workload.ClimateMesh(8, 8, 2, 1),
		workload.ClimateMesh(8, 8, 2, 2),
	}
	_, err := NewEngine().Batch(context.Background(), gs, Options{K: 2, P: 0.5})
	if err == nil {
		t.Fatal("expected batch failure for invalid P")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a *BatchError", err)
	}
	if len(be.Errs) != len(gs) {
		t.Fatalf("BatchError has %d slots, want %d", len(be.Errs), len(gs))
	}
	for i, e := range be.Errs {
		if e == nil {
			t.Fatalf("instance %d: expected an error", i)
		}
	}
	if got := len(be.Unwrap()); got != 2 {
		t.Fatalf("Unwrap returned %d errors, want 2", got)
	}
	if !strings.Contains(be.Error(), "2 of 2") || !strings.Contains(be.Error(), "instance 0") {
		t.Fatalf("summary %q lacks count or first index", be.Error())
	}
}

// TestBatchForwardsObserver checks that Batch reports through the
// engine's Observer like every other entry point: each instance's oracle
// calls arrive as OracleCall events, however the workers interleave them,
// so their count equals the results' summed Diag.SplitterCalls.
func TestBatchForwardsObserver(t *testing.T) {
	gs := make([]*graph.Graph, 4)
	for i := range gs {
		gs[i] = workload.ClimateMesh(16, 16, 3, int64(i+1))
	}
	var calls, rounds atomic.Int64
	obs := &funcObserver{
		enter:       func(StageName) {},
		leave:       func(StageName, time.Duration) {},
		oracle:      func(int64) { calls.Add(1) },
		polishRound: func(int, bool) { rounds.Add(1) },
	}
	eng := NewEngine(WithObserver(obs))
	rs, err := eng.Batch(context.Background(), gs, Options{K: 8, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range rs {
		want += r.Diag.SplitterCalls
	}
	if want == 0 {
		t.Fatal("batch made no oracle calls; the test premise is gone")
	}
	if got := calls.Load(); got != want {
		t.Fatalf("observer saw %d oracle calls, results report %d", got, want)
	}
	if rounds.Load() == 0 {
		t.Fatal("observer saw no polish rounds")
	}
}
