// Package a is the ctxcheckpoint fixture.
//
//repro:deterministic-core
package a

import (
	"bufio"
	"context"
)

type oracle struct{}

// Split is a documented long-work name (the splitting oracle).
func (oracle) Split(ctx context.Context) {}

func longWork(ctx context.Context) {}

func short() {}

// ctx stands in for core's run context: its interrupted, split and
// parRange methods are the checkpoints, and so is a receive from its done
// field.
type ctx struct {
	done <-chan struct{}
}

func (*ctx) interrupted() bool { return false }

func badCtxCallee(ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		longWork(ctx)
	}
}

func badOracle(o oracle, ctx context.Context, items []int) {
	for i := 0; i < len(items); i++ { // want `without a cancellation checkpoint`
		o.Split(ctx)
	}
}

func goodErrPoll(ctx context.Context, items []int) {
	for range items {
		if ctx.Err() != nil {
			return
		}
		longWork(ctx)
	}
}

// checkpoint polls nothing: a callee is trusted as a checkpoint by what
// it is, never by its name alone.
func checkpoint() {}

func badNamedCheckpoint(ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		checkpoint()
		longWork(ctx)
	}
}

func goodInterrupted(c *ctx, run context.Context, items []int) {
	for range items {
		if c.interrupted() {
			return
		}
		longWork(run)
	}
}

// A bufio.Scanner's Err reports a read error, not a cancelled run.
func badScannerErr(sc *bufio.Scanner, ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		if sc.Err() != nil {
			return
		}
		longWork(ctx)
	}
}

// split is a plain function, not the ctx method that checkpoints.
func split() {}

func badLocalSplit(ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		split()
		longWork(ctx)
	}
}

func goodDoneChannel(c *ctx, run context.Context, items []int) {
	for range items {
		select {
		case <-c.done:
			return
		default:
		}
		longWork(run)
	}
}

func goodContextDone(ctx context.Context, items []int) {
	for range items {
		select {
		case <-ctx.Done():
			return
		default:
		}
		longWork(ctx)
	}
}

// A local channel named done carries a worker's result, not a cancellation.
func badLocalDone(ctx context.Context, items []int) {
	done := make(chan int, 1)
	for range items { // want `without a cancellation checkpoint`
		done <- 1
		<-done
		longWork(ctx)
	}
}

// job is not the run context: neither its done field nor its Done method
// polls the run's cancellation.
type job struct {
	done chan struct{}
}

func (j *job) Done() <-chan struct{} { return j.done }

func badOtherDoneField(j *job, ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		select {
		case <-j.done:
			return
		default:
		}
		longWork(ctx)
	}
}

func badOtherDoneMethod(j *job, ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		select {
		case <-j.Done():
			return
		default:
		}
		longWork(ctx)
	}
}

func goodShortWork(items []int) {
	for range items {
		short()
	}
}

func audited(ctx context.Context, items []int) {
	//repro:checkpoint-ok one call is the documented checkpoint-granularity unit — DESIGN.md §8
	for range items {
		longWork(ctx)
	}
}

// ContractPar is a documented parallel long-work name (DESIGN.md §14).
func ContractPar() {}

func badParallelPrimitive(ctx context.Context, items []int) {
	for range items { // want `without a cancellation checkpoint`
		ContractPar()
	}
}

func goodParallelPrimitive(ctx context.Context, items []int) {
	for range items {
		if ctx.Err() != nil {
			return
		}
		ContractPar()
	}
}
