package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/graph"
)

// errQueueFull is returned by submit when the admission queue is at
// capacity; the HTTP layer maps it to 503 so overload sheds rather than
// piles up.
var errQueueFull = errors.New("service: admission queue full")

// errShuttingDown fails jobs still queued when the scheduler stops.
var errShuttingDown = errors.New("service: server shutting down")

// job is one partition request admitted to the batch scheduler.
type job struct {
	// ctx is the admitting request's context: a client disconnect or
	// deadline cancels the job — before execution it is dropped at drain
	// time, during execution it aborts the pipeline at its next checkpoint
	// (for grouped jobs, only once every member's context is done).
	ctx context.Context
	g   *graph.Graph
	opt repro.Options // result-relevant options; Parallelism is engine-owned

	done chan struct{}
	res  repro.Result
	err  error
}

// scheduler admission-queues independent partition jobs and drains them in
// groups onto Engine.Batch — the throughput path under load: one HTTP
// request per instance, but pipeline executions fanned across the worker
// pool batch-wise instead of goroutine-per-request.
//
// Batch takes a single Options for all instances, so each drained batch is
// grouped by OptionsKey and executed one group at a time; within a group,
// per-instance failures come back through repro.BatchError and are routed
// to exactly the jobs that failed.
//
// Cancellation: a job whose request context is already done when its batch
// drains is failed with that context's error without executing. A group in
// flight runs under a context that cancels only when every member's
// request context has been cancelled — one disconnecting client must not
// abort work other clients still wait on — while a lone job runs directly
// under its request context, so single-request cancellation reaches the
// pipeline immediately.
type scheduler struct {
	queue    chan *job
	window   time.Duration
	maxBatch int
	eng      *repro.Engine

	batches      int64 // drained batch executions
	jobsExecuted int64
	jobsDropped  int64 // jobs failed unexecuted because their ctx was done

	// mu orders submit against close: a submit holding the read lock has
	// either observed stopped (and rejected) or finished its enqueue before
	// close can set stopped — so every admitted job is in the queue before
	// the drain loop's shutdown sweep runs, and none can hang unserved.
	mu      sync.RWMutex
	stopped bool

	stop chan struct{}
	wg   sync.WaitGroup
}

func newScheduler(queueDepth, maxBatch int, window time.Duration, eng *repro.Engine) *scheduler {
	if queueDepth < 1 {
		queueDepth = 1
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	s := &scheduler{
		queue:    make(chan *job, queueDepth),
		window:   window,
		maxBatch: maxBatch,
		eng:      eng,
		stop:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// submit admits j or rejects it immediately when the queue is full.
// The caller waits on j.done.
func (s *scheduler) submit(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.stopped {
		return errShuttingDown
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// close stops the drain loop; queued-but-unexecuted jobs fail with
// errShuttingDown.
func (s *scheduler) close() {
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	s.wg.Wait()
}

func (s *scheduler) loop() {
	defer s.wg.Done()
	for {
		var first *job
		select {
		case first = <-s.queue:
		case <-s.stop:
			s.failQueued()
			return
		}
		batch := []*job{first}
		// Gather companions: up to maxBatch jobs within the admission
		// window. A zero window degrades to an opportunistic non-blocking
		// drain, which tests use for determinism.
		if s.window > 0 {
			timer := time.NewTimer(s.window)
		gather:
			for len(batch) < s.maxBatch {
				select {
				case j := <-s.queue:
					batch = append(batch, j)
				case <-timer.C:
					break gather
				case <-s.stop:
					break gather
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < s.maxBatch {
				select {
				case j := <-s.queue:
					batch = append(batch, j)
				default:
					break drain
				}
			}
		}
		s.run(batch)
	}
}

// failQueued drains and fails whatever is still queued at shutdown.
func (s *scheduler) failQueued() {
	for {
		select {
		case j := <-s.queue:
			j.err = errShuttingDown
			close(j.done)
		default:
			return
		}
	}
}

// groupContext derives the execution context of a multi-job group: it is
// cancelled once *every* member's request context is done (one client
// disconnecting must not abort a batch other clients still wait on), and
// released early via the returned stop function when the group finishes
// first, so the watcher goroutines never outlive the batch.
func groupContext(js []*job) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	pending := int32(len(js))
	for _, j := range js {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if atomic.AddInt32(&pending, -1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}(j.ctx.Done())
	}
	return ctx, cancel
}

// run executes one admitted batch, grouped by options identity.
func (s *scheduler) run(batch []*job) {
	groups := make(map[string][]*job)
	var order []string
	for _, j := range batch {
		// Drop jobs whose client is already gone: shed accounting at the
		// HTTP layer distinguishes these (499) from capacity sheds (503).
		if err := j.ctx.Err(); err != nil {
			j.err = err
			atomic.AddInt64(&s.jobsDropped, 1)
			close(j.done)
			continue
		}
		key := OptionsKey(j.opt)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], j)
	}
	for _, key := range order {
		js := groups[key]
		if len(js) == 1 {
			// A lone job gains nothing from instance-level fan-out (the
			// batch facade pins inner runs sequential); give it the
			// intra-pipeline parallel engine instead, directly under its
			// request context. The coloring is identical either way per
			// the core determinism contract.
			j := js[0]
			j.res, j.err = s.eng.PartitionWithOptions(j.ctx, j.g, j.opt)
			atomic.AddInt64(&s.batches, 1)
			atomic.AddInt64(&s.jobsExecuted, 1)
			close(j.done)
			continue
		}
		gs := make([]*graph.Graph, len(js))
		for i, j := range js {
			gs[i] = j.g
		}
		gctx, release := groupContext(js)
		results, err := s.eng.Batch(gctx, gs, js[0].opt)
		release()
		atomic.AddInt64(&s.batches, 1)
		atomic.AddInt64(&s.jobsExecuted, int64(len(js)))
		var be *repro.BatchError
		perInstance := errors.As(err, &be)
		for i, j := range js {
			switch {
			case err == nil || (perInstance && be.Errs[i] == nil):
				j.res = results[i]
			case perInstance:
				j.err = be.Errs[i]
			default:
				j.err = err
			}
			close(j.done)
		}
	}
}
