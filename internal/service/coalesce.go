package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro"
)

// flightGroup coalesces concurrent identical requests: the first caller of
// a key becomes the leader and executes fn; every caller that arrives
// while the leader is in flight blocks and shares the leader's result
// instead of re-running the pipeline (the classic singleflight shape,
// implemented locally — the container has no external deps).
//
// Invariant: for any key, at most one fn runs at a time; a request is
// either a cache hit, a coalesced wait, or the single pipeline run.
//
// Cancellation: fn receives an execution context owned by the flight, not
// by the leader's request — it is cancelled only once *every* participant
// (leader and followers alike) has abandoned the key. One disconnecting
// client therefore never aborts a run other clients still wait on, while
// a run nobody wants anymore stops at its next pipeline checkpoint. A
// follower whose own context dies stops waiting immediately with its
// ctx.Err(); the run carries on for the rest.
type flightGroup struct {
	mu        sync.Mutex
	calls     map[string]*flightCall
	coalesced int64
}

type flightCall struct {
	done chan struct{}
	res  repro.Result
	err  error

	// waiters counts participants still interested in the result; when it
	// reaches zero, cancel aborts the execution context. A participant
	// with an un-cancellable context (Done() == nil) increments without a
	// watcher, pinning the run alive — correct, since that caller can
	// never stop waiting.
	waiters atomic.Int32
	cancel  context.CancelFunc
}

// join registers one participant: the run stays alive at least until this
// participant's context dies or the result lands.
func (c *flightCall) join(ctx context.Context) {
	c.waiters.Add(1)
	done := ctx.Done()
	if done == nil {
		return
	}
	go func() {
		select {
		case <-done:
			if c.waiters.Add(-1) == 0 {
				c.cancel()
			}
		case <-c.done:
		}
	}()
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do executes fn under key, coalescing concurrent duplicates. The third
// return reports whether this caller shared another caller's execution.
//
// ctx governs this caller's membership: it stops this caller's wait when
// it dies, and contributes to the all-participants-gone condition that
// cancels the execution context handed to fn.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (repro.Result, error)) (repro.Result, error, bool) {
	g.mu.Lock()
	for {
		c, ok := g.calls[key]
		if !ok {
			break
		}
		c.join(ctx)
		g.mu.Unlock()
		select {
		case <-c.done:
			if isCtxErr(c.err) && ctx.Err() == nil {
				// We joined a flight in its death throes: every earlier
				// participant had left before our join registered, so the
				// run was cancelled out from under us. We are still live —
				// retake leadership instead of telling a patient client it
				// disconnected. The dead call is already deleted from
				// g.calls (delete precedes close(done)), so the next loop
				// iteration finds either a fresh leader or an empty slot.
				g.mu.Lock()
				continue
			}
			g.mu.Lock()
			g.coalesced++
			g.mu.Unlock()
			return c.res, c.err, true
		case <-ctx.Done():
			// An abandoned wait was not served by anyone — it does not
			// count as coalesced.
			return repro.Result{}, ctx.Err(), true
		}
	}
	// A would-be leader whose context is already dead has nobody to run
	// for: refuse deterministically instead of racing the membership
	// watcher against a fast pipeline. (Mid-run cancellation stays racy by
	// nature — if the run wins, the completed result is kept and cached,
	// which is exactly the keep-finished-work semantics coalescing wants.)
	if err := ctx.Err(); err != nil {
		g.mu.Unlock()
		return repro.Result{}, err, false
	}
	execCtx, cancel := context.WithCancel(context.Background())
	// c.err starts as errRunPanicked and fn's return overwrites it, so if fn
	// panics the followers answer 500 while the panic propagates to the
	// leader's caller. The deferred release runs on every path: a key whose
	// run panicked runs again on its next request instead of stranding
	// every later caller on a done channel nobody closes.
	c := &flightCall{done: make(chan struct{}), cancel: cancel, err: errRunPanicked}
	c.join(ctx)
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		cancel() // release the membership watchers; the run is over either way
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()

	c.res, c.err = fn(execCtx)
	return c.res, c.err, false
}

// errRunPanicked is what the followers of a flight whose run panicked
// receive (a 500); the leader's goroutine carries the panic itself.
var errRunPanicked = errors.New("service: pipeline run panicked")

// coalescedCount returns how many calls were served by another caller's
// execution.
func (g *flightGroup) coalescedCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}

// isCtxErr reports whether err is a context cancellation or deadline
// error (directly or wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
