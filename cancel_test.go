package repro

// Cancellation coverage for the Engine/Instance API: a cancelled run must
// abort promptly, leak nothing, mutate nothing, and cache nothing (the
// serving-layer half of that last invariant lives in internal/service and
// cmd/reprosrv).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/workload"
)

// waitGoroutines polls until the goroutine count falls back to at most
// base+slack, tolerating runtime background goroutines that come and go.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizer goroutines along
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d now vs %d before", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPartitionCancelMidPipeline cancels a 256×256-grid decomposition
// mid-run, repeatedly and at varying depths, and checks that every run
// returns ctx.Err() promptly and that no pool worker outlives its run —
// the race detector (CI runs this package under -race) additionally
// checks the drain itself.
func TestPartitionCancelMidPipeline(t *testing.T) {
	gr := grid.MustBox(256, 256)
	workload.ApplyFields(gr, workload.LognormalWeights(0.5), nil, 1)
	eng := NewEngine()
	base := runtime.NumGoroutine()

	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond, 25 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if delay > 0 {
				time.Sleep(delay)
			}
			cancel()
		}()
		res, err := eng.PartitionGrid(ctx, gr, 16)
		<-done
		if err == nil {
			// The run may legitimately win the race against a late cancel
			// only if it produced a complete strict coloring.
			if !res.Stats.StrictlyBalanced {
				t.Fatalf("delay %v: uncancelled run returned non-strict result", delay)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want context.Canceled", delay, err)
		}
		if res.Coloring != nil {
			t.Fatalf("delay %v: cancelled run leaked a partial coloring", delay)
		}
	}
	waitGoroutines(t, base)
}

// TestCancelledRepartitionLeavesInstanceUntouched drives an Instance
// through a successful partition, then cancels a drift repartition and
// checks the whole session state — coloring, content hash, graph weights,
// migration history — is exactly as before, and that the session still
// works afterwards.
func TestCancelledRepartitionLeavesInstanceUntouched(t *testing.T) {
	mesh := workload.ClimateMesh(48, 48, 4, 3)
	eng := NewEngine()
	inst, err := eng.NewInstance(mesh, Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Partition(context.Background()); err != nil {
		t.Fatal(err)
	}
	prior := inst.Coloring()
	priorHash := inst.Hash()
	priorWeights := append([]float64(nil), inst.Graph().Weight...)

	scale := make([]WeightChange, 0, mesh.N())
	for v := 0; v < mesh.N(); v++ {
		f := 0.5
		if v%2 == 0 {
			f = 2.1
		}
		scale = append(scale, WeightChange{V: int32(v), W: f})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the refine must not start
	if _, err := inst.Repartition(ctx, Delta{Scale: scale}); !errors.Is(err, context.Canceled) {
		t.Fatalf("repartition err = %v, want context.Canceled", err)
	}

	if got := inst.Coloring(); len(got) != len(prior) {
		t.Fatalf("coloring length changed: %d → %d", len(prior), len(got))
	} else {
		for v := range got {
			if got[v] != prior[v] {
				t.Fatalf("cancelled repartition mutated the session coloring at vertex %d", v)
			}
		}
	}
	if inst.Hash() != priorHash {
		t.Fatalf("cancelled repartition changed the content hash: %s → %s", priorHash, inst.Hash())
	}
	for v, w := range inst.Graph().Weight {
		if w != priorWeights[v] {
			t.Fatalf("cancelled repartition mutated weight of vertex %d", v)
		}
	}
	if h := inst.History(); len(h) != 0 {
		t.Fatalf("cancelled repartition appended to the migration history: %v", h)
	}

	// The session is still live: the same drift succeeds afterwards and is
	// recorded.
	res, err := inst.Repartition(context.Background(), Delta{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("post-cancellation repartition not strictly balanced")
	}
	if inst.Hash() == priorHash {
		t.Fatal("successful repartition did not advance the content hash")
	}
	if len(inst.History()) != 1 {
		t.Fatalf("history length %d after one adopted drift, want 1", len(inst.History()))
	}
}

// TestCancelledTopologyRepartitionLeavesInstanceUntouched extends the
// transactional-session invariant to topology mutations: a cancelled or
// invalid topology delta must leave the Instance byte-identical — same
// graph object (not a patched copy), same coloring, hash, weights and
// history — and the session must stay fully usable.
func TestCancelledTopologyRepartitionLeavesInstanceUntouched(t *testing.T) {
	mesh := workload.ClimateMesh(32, 32, 4, 5)
	eng := NewEngine()
	inst, err := eng.NewInstance(mesh, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Partition(context.Background()); err != nil {
		t.Fatal(err)
	}
	priorGraph := inst.Graph()
	prior := inst.Coloring()
	priorHash := inst.Hash()
	priorWeights := append([]float64(nil), priorGraph.Weight...)

	n := int32(mesh.N())
	mutation := Delta{
		RemoveVertices: []int32{3, 70},
		AddVertices:    []float64{1.5},
		AddEdges:       []EdgeChange{{U: n, V: 0, Cost: 1}},
	}

	checkUntouched := func(label string) {
		t.Helper()
		if inst.Graph() != priorGraph {
			t.Fatalf("%s: session graph was replaced", label)
		}
		if inst.Hash() != priorHash {
			t.Fatalf("%s: content hash changed: %s → %s", label, priorHash, inst.Hash())
		}
		got := inst.Coloring()
		if len(got) != len(prior) {
			t.Fatalf("%s: coloring length changed: %d → %d", label, len(prior), len(got))
		}
		for v := range got {
			if got[v] != prior[v] {
				t.Fatalf("%s: coloring mutated at vertex %d", label, v)
			}
		}
		for v, w := range inst.Graph().Weight {
			if w != priorWeights[v] {
				t.Fatalf("%s: weight of vertex %d mutated", label, v)
			}
		}
		if h := inst.History(); len(h) != 0 {
			t.Fatalf("%s: migration history grew: %v", label, h)
		}
	}

	// A context dead on arrival: the mutation must not be applied at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.Repartition(ctx, mutation); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled topology repartition err = %v, want context.Canceled", err)
	}
	checkUntouched("cancelled mutation")

	// Invalid mutations of every flavor: rejected with the session intact.
	invalid := []Delta{
		{RemoveVertices: []int32{n}},                                    // out of range
		{RemoveVertices: []int32{1, 1}},                                 // duplicate removal
		{AddEdges: []EdgeChange{{U: 0, V: 1, Cost: 1}}},                 // duplicates an existing edge
		{AddEdges: []EdgeChange{{U: 5, V: 5, Cost: 1}}},                 // self-loop
		{AddVertices: []float64{-2}},                                    // negative weight
		{RemoveVertices: []int32{4}, Set: []WeightChange{{V: 4, W: 1}}}, // Set on removed
	}
	for i, d := range invalid {
		if _, err := inst.Repartition(context.Background(), d); err == nil {
			t.Fatalf("invalid mutation %d accepted: %+v", i, d)
		}
		checkUntouched(fmt.Sprintf("invalid mutation %d", i))
	}

	// The session survives: the same mutation succeeds on a live context.
	res, err := inst.Repartition(context.Background(), mutation)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StrictlyBalanced {
		t.Fatal("post-cancellation mutation not strictly balanced")
	}
	if inst.Graph().N() != mesh.N()-1 {
		t.Fatalf("mutated graph has %d vertices, want %d", inst.Graph().N(), mesh.N()-1)
	}
	if inst.Hash() != graph.ContentHash(inst.Graph()) {
		t.Fatal("session hash diverged from the canonical content hash")
	}
	if len(inst.History()) != 1 {
		t.Fatalf("history length %d after one adopted mutation, want 1", len(inst.History()))
	}
}

// TestBatchCancellation checks Engine.Batch's cancellation contract: after
// ctx dies, no new instance starts, every unfinished entry carries
// context.Canceled inside the *BatchError, and the entries that completed
// before the cut survive as valid results.
func TestBatchCancellation(t *testing.T) {
	gs := make([]*graph.Graph, 24)
	for i := range gs {
		gs[i] = workload.ClimateMesh(32, 32, 3, int64(i+1))
	}
	eng := NewEngine()

	// Sequential workers + a cancel racing the run: some prefix completes,
	// the rest is reported cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	results, err := eng.Batch(ctx, gs, Options{K: 8, Parallelism: 1})
	if err == nil {
		t.Skip("machine fast enough to finish 24 instances in 10ms — nothing to assert")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BatchError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("BatchError does not unwrap to context.Canceled")
	}
	completed, cancelled := 0, 0
	for i, e := range be.Errs {
		switch {
		case e == nil:
			completed++
			if !results[i].Stats.StrictlyBalanced {
				t.Fatalf("instance %d: completed result not strictly balanced", i)
			}
		case errors.Is(e, context.Canceled):
			cancelled++
			if results[i].Coloring != nil {
				t.Fatalf("instance %d: cancelled entry has a partial result", i)
			}
		default:
			t.Fatalf("instance %d: unexpected error %v", i, e)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancel landed but no entry was reported cancelled")
	}
	t.Logf("batch cut: %d completed, %d cancelled", completed, cancelled)

	// A context dead on arrival cancels everything without running any
	// pipeline.
	dead, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	results, err = eng.Batch(dead, gs, Options{K: 8})
	if !errors.As(err, &be) {
		t.Fatalf("pre-cancelled batch err = %T, want *BatchError", err)
	}
	for i := range be.Errs {
		if !errors.Is(be.Errs[i], context.Canceled) {
			t.Fatalf("instance %d: err = %v, want context.Canceled", i, be.Errs[i])
		}
		if results[i].Coloring != nil {
			t.Fatalf("instance %d: pre-cancelled batch produced a result", i)
		}
	}
}

// TestObserverSeesFullRun checks the Observer contract on an uncancelled
// run: the four stages enter and leave in order, oracle calls accumulate
// monotonically, and polish rounds report.
func TestObserverSeesFullRun(t *testing.T) {
	type event struct {
		kind  string
		stage StageName
	}
	var (
		events    []event
		oracleMax int64
		polish    int32
	)
	obs := &funcObserver{
		enter: func(s StageName) { events = append(events, event{"enter", s}) },
		leave: func(s StageName, _ time.Duration) { events = append(events, event{"leave", s}) },
		oracle: func(n int64) {
			if n < atomic.LoadInt64(&oracleMax) {
				t.Errorf("oracle total went backwards: %d", n)
			}
			atomic.StoreInt64(&oracleMax, n)
		},
		polishRound: func(int, bool) { atomic.AddInt32(&polish, 1) },
	}
	mesh := workload.ClimateMesh(24, 24, 3, 1)
	eng := NewEngine(WithObserver(obs))
	// Parallelism 1 keeps the enter/leave slice single-writer.
	res, err := eng.PartitionWithOptions(context.Background(), mesh, Options{K: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []StageName{StageMultiBalance, StageAlmostStrict, StageStrictPack, StagePolish}
	if len(events) != 8 {
		t.Fatalf("got %d stage events, want 8: %v", len(events), events)
	}
	for i, s := range wantOrder {
		if events[2*i] != (event{"enter", s}) || events[2*i+1] != (event{"leave", s}) {
			t.Fatalf("stage event order wrong at %s: %v", s, events)
		}
	}
	if got := atomic.LoadInt64(&oracleMax); got != res.Diag.SplitterCalls {
		t.Fatalf("observer saw %d oracle calls, diagnostics say %d", got, res.Diag.SplitterCalls)
	}
	if atomic.LoadInt32(&polish) == 0 {
		t.Fatal("no polish rounds observed")
	}
}

// funcObserver adapts closures to the Observer interface for tests.
type funcObserver struct {
	enter       func(StageName)
	leave       func(StageName, time.Duration)
	oracle      func(int64)
	polishRound func(int, bool)
}

func (f *funcObserver) StageEnter(s StageName)                  { f.enter(s) }
func (f *funcObserver) StageLeave(s StageName, d time.Duration) { f.leave(s, d) }
func (f *funcObserver) OracleCall(n int64)                      { f.oracle(n) }
func (f *funcObserver) PolishRound(r int, i bool)               { f.polishRound(r, i) }
