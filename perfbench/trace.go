package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/splitter"
)

// span is one timed interval of the traced run. Parent indexes the
// enclosing span (−1 for none); Op is the measured op it belongs to (−1
// for set-up work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory for the traced run. All methods are safe
// for concurrent use, and every method of a nil *tracer is a no-op, so the
// untraced run shares the code path at the cost of a nil check.
//
// Nesting: the benchmark's op and repartition spans and the Observer's
// stage spans all open and close on the caller's goroutine, in order, so
// they form a stack and each new span's parent is the stack top. Spans
// from concurrent callers (oracle calls, HTTP requests) bypass the stack
// through record.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int
	op    int

	oracleCalls    atomic.Int64
	polishRounds   atomic.Int64
	polishImproved atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// events counts Observer events.
type events struct{ oracleCalls, polishRounds, polishImproved int64 }

func (e events) minus(o events) events {
	return events{e.oracleCalls - o.oracleCalls, e.polishRounds - o.polishRounds, e.polishImproved - o.polishImproved}
}

func (e events) plus(o events) events {
	return events{e.oracleCalls + o.oracleCalls, e.polishRounds + o.polishRounds, e.polishImproved + o.polishImproved}
}

// events reads the event counters.
func (t *tracer) events() events {
	if t == nil {
		return events{}
	}
	return events{t.oracleCalls.Load(), t.polishRounds.Load(), t.polishImproved.Load()}
}

// setOp attributes the spans that follow to op i (−1: set-up).
func (t *tracer) setOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// begin opens a span nested in the current stack top and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and every span still open above it.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top].End = stop
		if top == id {
			return
		}
	}
}

// endNamed closes the innermost open span called name (an Observer
// StageLeave names its stage, not a span id).
func (t *tracer) endNamed(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := -1
	for n := len(t.stack) - 1; n >= 0; n-- {
		if t.spans[t.stack[n]].Name == name {
			id = t.stack[n]
			break
		}
	}
	t.mu.Unlock()
	t.end(id)
}

// record stores a finished span taken outside the stack discipline.
func (t *tracer) record(name string, start, stop time.Time, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(stop.Sub(t.epoch)), Parent: -1, Op: op,
	})
	t.mu.Unlock()
}

// timed runs f inside a span called name. It is for work done beside the
// ops only to measure a layer, so a nil tracer skips f.
func (t *tracer) timed(name string, f func()) {
	if t == nil {
		return
	}
	id := t.begin(name)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// stageObserver is the benchmark-supplied repro.Observer: stage events
// become "core.<stage>" spans, oracle calls and polish rounds counters.
type stageObserver struct{ t *tracer }

func (o stageObserver) StageEnter(s repro.StageName) { o.t.begin("core." + string(s)) }

func (o stageObserver) StageLeave(s repro.StageName, _ time.Duration) {
	o.t.endNamed("core." + string(s))
}

func (o stageObserver) OracleCall(int64) { o.t.oracleCalls.Add(1) }

func (o stageObserver) PolishRound(_ int, improved bool) {
	o.t.polishRounds.Add(1)
	if improved {
		o.t.polishImproved.Add(1)
	}
}

// timedSplitter wraps the direct path's oracle; each Split call is one
// "splitter.split" span, so per-op busy time sums over the workers.
type timedSplitter struct {
	inner splitter.Splitter
	t     *tracer
	op    int
}

func (s timedSplitter) Split(ctx context.Context, W []int32, w []float64, target float64) []int32 {
	start := time.Now()
	out := s.inner.Split(ctx, W, w, target)
	s.t.record("splitter.split", start, time.Now(), s.op)
	return out
}
