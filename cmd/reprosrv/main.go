// Command reprosrv serves min-max boundary decompositions over HTTP/JSON —
// the serving front end of the reproduction (DESIGN.md §6, §8). It wraps
// the internal/service subsystem: an LRU result cache keyed by canonical
// graph+options hashes, singleflight coalescing of concurrent identical
// queries, GOMAXPROCS run slots shared by every cache miss (a miss that
// finds them all busy is shed with 503), and an incremental
// /v1/repartition endpoint backed by per-(graph, options) Instance
// sessions for weight-drift workloads.
// Request contexts propagate into the pipeline: a disconnected client or
// an expired deadline cancels its decomposition mid-run (answered 499/504
// and counted separately from capacity sheds).
//
// With -data-dir the server is durable (DESIGN.md §11): every upload,
// partition result and repartition delta is appended to a CRC-framed
// operation log and compacted into periodic snapshots, and a restart —
// graceful or SIGKILL — replays snapshot-then-log-tail so the process
// comes back warm: graphs resolvable, results cached, repartition
// sessions resumable with their digest chains and migration histories
// intact, zero re-uploads required.
//
// Usage:
//
//	reprosrv [-addr :8080] [-cache 256] [-graphs 64] [-par 0]
//	         [-req-timeout 0] [-data-dir ""] [-snapshot-interval 1m]
//	         [-fsync batch]
//
// Endpoints:
//
//	POST /v1/graphs       upload a graph (textual format of internal/graph/io)
//	POST /v1/partition    {"graph_id": "...", "k": 16}
//	POST /v1/repartition  {"graph_id": "...", "k": 16, "scale": [{"v":0,"w":2}]}
//	GET  /v1/stats        cache/coalescing/shed/persistence counters
//	GET  /v1/healthz      liveness
//	GET  /metrics         Prometheus text exposition: per-stage pipeline
//	                      latency histograms (multibalance, almoststrict,
//	                      strictpack, polish, coarsen, multilevel), per-
//	                      endpoint request histograms, and every /v1/stats
//	                      counter as a scrape-time metric
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 256, "result-cache capacity (entries)")
	graphs := flag.Int("graphs", 64, "uploaded-graph store capacity")
	par := flag.Int("par", 0, "pipeline worker-pool bound (0 = GOMAXPROCS)")
	reqTimeout := flag.Duration("req-timeout", 0, "server-side per-request deadline; expiry cancels the pipeline and answers 504 (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "durable state directory: op-log + snapshots, recovered on boot (empty = in-memory only)")
	snapInterval := flag.Duration("snapshot-interval", time.Minute, "compacting-snapshot period when -data-dir is set")
	fsync := flag.String("fsync", "batch", "op-log durability: batch (group commit), always (fsync per record), none")
	flag.Parse()

	cfg := service.Config{
		CacheSize:      *cache,
		GraphStoreSize: *graphs,
		Parallelism:    *par,
		RequestTimeout: *reqTimeout,
	}

	var st *store.Store
	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprosrv: %v\n", err)
			os.Exit(2)
		}
		st, err = store.Open(store.Options{
			Dir:              *dataDir,
			Fsync:            mode,
			SnapshotInterval: *snapInterval,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprosrv: opening %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		ri := st.Recovery()
		log.Printf("reprosrv: recovered %s: %d graphs, %d results, %d sessions (snapshot seq %d, %d replayed, %d skipped, %d B truncated, clean=%v)",
			*dataDir, ri.Graphs, ri.Results, ri.Sessions, ri.SnapshotSeq, ri.Replayed, ri.Skipped, ri.TruncatedBytes, ri.CleanShutdown)
		cfg.Store = st
	}

	srv := service.New(cfg)
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain in-flight
	// requests, close the server to further pipeline runs, then seal the
	// durable log with a final snapshot — the next boot recovers without
	// replay.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- hs.Shutdown(shutdownCtx)
	}()

	log.Printf("reprosrv listening on %s", *addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "reprosrv: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "reprosrv: shutdown: %v\n", err)
		os.Exit(1)
	}
	srv.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "reprosrv: sealing log: %v\n", err)
			os.Exit(1)
		}
		log.Printf("reprosrv: sealed %s", *dataDir)
	}
}
