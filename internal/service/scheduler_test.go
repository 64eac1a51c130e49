package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

func submitAndWait(t *testing.T, s *scheduler, g *graph.Graph, opt repro.Options) *job {
	t.Helper()
	j := &job{ctx: context.Background(), g: g, opt: opt, done: make(chan struct{})}
	if err := s.submit(j); err != nil {
		t.Fatal(err)
	}
	<-j.done
	return j
}

func TestSchedulerExecutesMixedOptionGroups(t *testing.T) {
	s := newScheduler(64, 16, time.Millisecond, repro.NewEngine(repro.WithParallelism(2)))
	defer s.close()

	gA := workload.ClimateMesh(12, 12, 3, 1)
	gB := workload.ClimateMesh(12, 12, 3, 2)
	type out struct{ j *job }
	done := make(chan out, 4)
	// Two distinct option identities in one admission wave: the drain must
	// group them and run Engine.Batch once per group.
	for i, req := range []struct {
		g   *graph.Graph
		opt repro.Options
	}{
		{gA, repro.Options{K: 4}},
		{gB, repro.Options{K: 4}},
		{gA, repro.Options{K: 6}},
		{gB, repro.Options{K: 6}},
	} {
		go func(g *graph.Graph, opt repro.Options, i int) {
			j := &job{ctx: context.Background(), g: g, opt: opt, done: make(chan struct{})}
			if err := s.submit(j); err != nil {
				j.err = err
				close(j.done)
			}
			<-j.done
			done <- out{j}
		}(req.g, req.opt, i)
	}
	for i := 0; i < 4; i++ {
		o := <-done
		if o.j.err != nil {
			t.Fatal(o.j.err)
		}
		if !o.j.res.Stats.StrictlyBalanced {
			t.Fatal("scheduled result not strictly balanced")
		}
		if len(o.j.res.Coloring) != 144 {
			t.Fatalf("coloring length %d, want 144", len(o.j.res.Coloring))
		}
	}
	if atomic.LoadInt64(&s.jobsExecuted) != 4 {
		t.Fatalf("jobsExecuted = %d, want 4", s.jobsExecuted)
	}
}

func TestSchedulerMatchesStandaloneRun(t *testing.T) {
	s := newScheduler(8, 4, 0, repro.NewEngine(repro.WithParallelism(1)))
	defer s.close()
	g := workload.ClimateMesh(16, 16, 3, 5)
	opt := repro.Options{K: 8}
	j := submitAndWait(t, s, g, opt)
	if j.err != nil {
		t.Fatal(j.err)
	}
	solo, err := repro.NewEngine().PartitionWithOptions(context.Background(), g, repro.Options{K: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range solo.Coloring {
		if solo.Coloring[v] != j.res.Coloring[v] {
			t.Fatal("scheduled coloring differs from standalone sequential run")
		}
	}
}

func TestSchedulerPerInstanceErrors(t *testing.T) {
	s := newScheduler(8, 4, 0, repro.NewEngine(repro.WithParallelism(1)))
	defer s.close()
	g := workload.ClimateMesh(8, 8, 2, 1)
	// Invalid P fails inside the pipeline, after admission: the job must
	// come back with its own error, not hang or panic.
	j := submitAndWait(t, s, g, repro.Options{K: 2, P: 0.5})
	if j.err == nil {
		t.Fatal("invalid P did not surface")
	}
}

func TestSchedulerAdmissionControl(t *testing.T) {
	// A scheduler that can never drain (closed immediately) with a tiny
	// queue: the overflow submit must fail fast with errQueueFull.
	s := newScheduler(1, 1, time.Hour, repro.NewEngine(repro.WithParallelism(1)))
	// Stall the drain loop with a job it will gather forever (window 1h,
	// maxBatch 1 means it executes immediately — so instead saturate the
	// queue while the loop is busy). Use a graph big enough to occupy it.
	big := workload.ClimateMesh(48, 48, 3, 1)
	first := &job{ctx: context.Background(), g: big, opt: repro.Options{K: 16}, done: make(chan struct{})}
	if err := s.submit(first); err != nil {
		t.Fatal(err)
	}
	// Fill the queue slot and then overflow it.
	var sawFull bool
	for i := 0; i < 50; i++ {
		j := &job{ctx: context.Background(), g: big, opt: repro.Options{K: 16}, done: make(chan struct{})}
		if err := s.submit(j); err != nil {
			if !errors.Is(err, errQueueFull) {
				t.Fatalf("overflow error = %v, want errQueueFull", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
	s.close()
}

func TestSchedulerShutdownFailsQueued(t *testing.T) {
	s := newScheduler(4, 4, 0, repro.NewEngine(repro.WithParallelism(1)))
	s.close()
	j := &job{ctx: context.Background(), g: workload.ClimateMesh(4, 4, 2, 1), opt: repro.Options{K: 2}, done: make(chan struct{})}
	if err := s.submit(j); !errors.Is(err, errShuttingDown) {
		t.Fatalf("submit after close = %v, want errShuttingDown", err)
	}
}
