package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before overflow")
	}
	// a is now most-recent; inserting c must evict b.
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least-recent")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	hits, misses, evictions := c.counters()
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Fatalf("counters = (%d, %d, %d), want (3, 1, 1)", hits, misses, evictions)
	}
}

func TestLRUOverwriteRefreshes(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	c.put("a", 10) // refresh, not insert
	c.put("c", 3)  // evicts b
	if v, ok := c.get("a"); !ok || v != 10 {
		t.Fatalf("a = (%d, %t), want (10, true)", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := newLRU[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%16)
				c.put(key, i)
				c.get(key)
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > 8 {
		t.Fatalf("len = %d exceeds capacity 8", n)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var runs int64
	release := make(chan struct{})
	started := make(chan struct{})

	const followers = 7
	var wg sync.WaitGroup
	results := make([]repro.Result, followers+1)
	shared := make([]bool, followers+1)
	call := func(i int) {
		defer wg.Done()
		res, err, coalesced := g.do(context.Background(), "key", func(context.Context) (repro.Result, error) {
			close(started)
			<-release
			atomic.AddInt64(&runs, 1)
			return repro.Result{UsedFallback: true}, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i] = res
		shared[i] = coalesced
	}
	// One leader enters fn and blocks …
	wg.Add(1)
	go call(0)
	<-started
	// … then every follower joins while the leader is provably in flight.
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go call(i)
	}
	// Followers join the call's membership before blocking on the leader
	// (coalescedCount now increments only when a shared result is
	// returned); wait for all of them so none can arrive late and lead a
	// second run.
	g.mu.Lock()
	c := g.calls["key"]
	g.mu.Unlock()
	for c.waiters.Load() < followers+1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	for i := range shared {
		if !results[i].UsedFallback {
			t.Fatalf("caller %d got a zero result", i)
		}
		if (i == 0) == shared[i] {
			t.Fatalf("caller %d: coalesced=%t, want leader-only execution", i, shared[i])
		}
	}
	if got := g.coalescedCount(); got != followers {
		t.Fatalf("coalesced = %d, want %d", got, followers)
	}
}

func TestFlightGroupKeyIsolation(t *testing.T) {
	g := newFlightGroup()
	_, _, c1 := g.do(context.Background(), "a", func(context.Context) (repro.Result, error) { return repro.Result{}, nil })
	_, _, c2 := g.do(context.Background(), "b", func(context.Context) (repro.Result, error) { return repro.Result{}, nil })
	if c1 || c2 {
		t.Fatal("sequential distinct keys must not coalesce")
	}
	// A key is reusable after its call completes.
	_, _, c3 := g.do(context.Background(), "a", func(context.Context) (repro.Result, error) { return repro.Result{}, nil })
	if c3 {
		t.Fatal("completed key should start a fresh call")
	}
}

// TestFlightPanicReleasesKey: a run that panics must not strand its key.
// The panic reaches the leader's caller (net/http recovers handler
// panics), a follower waiting on the run gets errRunPanicked, and the
// next call on the key runs fn afresh.
func TestFlightPanicReleasesKey(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.do(context.Background(), "k", func(context.Context) (repro.Result, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	// A stranded key would hold the calls below until this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	followerErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(ctx, "k", func(context.Context) (repro.Result, error) {
			t.Error("follower executed fn despite a leader in flight")
			return repro.Result{}, nil
		})
		followerErr <- err
	}()
	g.mu.Lock()
	c := g.calls["k"]
	g.mu.Unlock()
	for c.waiters.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want the run's panic", r)
	}
	if err := <-followerErr; !errors.Is(err, errRunPanicked) {
		t.Fatalf("follower err = %v, want errRunPanicked", err)
	}

	ran := false
	_, err, coalesced := g.do(ctx, "k", func(context.Context) (repro.Result, error) {
		ran = true
		return repro.Result{}, nil
	})
	if err != nil || coalesced || !ran {
		t.Fatalf("call after the panic: err=%v coalesced=%t ran=%t, want a fresh run", err, coalesced, ran)
	}
}
