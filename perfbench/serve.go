package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/store"
)

// serve drives an in-process service.Server through loadgen's handler
// Target. The closed loop replays one seeded trace pass after another,
// each against a fresh server on a fresh op log, so every pass starts
// from the same state: each drift and churn request of a pass is new to
// its server, a cache miss that runs the incremental path and appends to
// the op log, while repeated partition queries hit the cache. loadgen's
// certifier checks every response.
type serve struct {
	o     options
	h     *loadgen.Harness // a measured pass: loadgen's prologue, then the trace body
	prime *loadgen.Harness // the same instances with a one-query body: a server's set-up
}

// serveProfile is the serve traffic: loadgen's Quick profile, with its
// operation weights, six G̃ instances (two copies of each mesh, so Lemma
// 40 certifies every coloring), k=8 and k=4, multilevel share and server
// configuration. It differs from Quick in these ways:
//   - 40×40 base meshes and nproc clients;
//   - no uploads or bursts in the body: a burst puts BurstWidth requests
//     in flight at once, more than nproc, and a re-upload allocates ~5 MB,
//     which made alloc_mb_per_op follow the seed's upload count;
//   - a no_cache share of 0.2 of the partitions, the full pipeline runs
//     behind service.miss_ms;
//   - drift and churn chains longer than any instance's share of a pass,
//     so no drift or churn request repeats within a pass;
//   - no from-scratch comparisons: they run after the body, outside the
//     measured requests.
func serveProfile(o options) loadgen.Profile {
	p := loadgen.Quick()
	p.Name = "perfbench-serve"
	p.Seed = o.seed
	p.Clients = o.par
	p.Requests = o.size.ServeRequests
	p.Mix.Upload, p.Mix.Burst = 0, 0
	p.MeshRows, p.MeshCols = o.size.ServeSide, o.size.ServeSide
	p.NoCacheFraction = 0.2
	p.DriftSteps, p.ChurnSteps = o.size.ServeDriftSteps, o.size.ServeChurnSteps
	p.ScratchEvery = 0
	return p
}

func newServe(o options) (*serve, error) {
	p := serveProfile(o)
	h, err := loadgen.New(p)
	if err != nil {
		return nil, err
	}
	// The same seed and meshes give the same instances and uploads; a body
	// of one partition at k=8 queries a key the prologue warmed.
	q := p
	q.Requests, q.Mix = 1, loadgen.Mix{Partition: 1}
	q.AltK, q.NoCacheFraction, q.MultilevelFraction = 0, 0, 0
	q.DriftSteps, q.ChurnSteps = 0, 0
	prime, err := loadgen.New(q)
	if err != nil {
		return nil, err
	}
	return &serve{o: o, h: h, prime: prime}, nil
}

func (w *serve) inputDigest() string { return loadgen.TraceDigest(w.h.Trace()) }

// setup starts the first server.
func (w *serve) setup(tr *tracer) (system, error) {
	s := &serveSystem{w: w, tgt: &timingTarget{tr: tr, graphs: map[string]*graph.Graph{}, bounds: map[string]float64{}}}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

type serveSystem struct {
	w      *serve
	tgt    *timingTarget
	opened int
	dir    string
	st     *store.Store // nil between a pass and the next set-up
	srv    *service.Server
	totals serveTotals
}

// serveTotals sums the measured passes.
type serveTotals struct {
	requests  int
	uploads   []float64 // ms of each set-up upload
	classes   []reqClass
	coalesced int64
	pipeline  int64
	shed      int64
	records   int64
	logBytes  int64
	clientGap time.Duration // clients × body wall − time inside Do
	passes    int
}

// open starts a fresh server on a fresh op log and runs the prime
// harness on it: loadgen's prologue of uploads and warming partitions.
// This is one set-up.
func (s *serveSystem) open() error {
	s.opened++
	s.dir = filepath.Join(s.w.o.out, "serve-store-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(s.opened))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	// The op log lives in the checkout, which may sit on a disk; fsync
	// "none" keeps the batch flush timer but leaves the sync to the OS,
	// which is what batch fsync amounts to on tmpfs.
	st, err := store.Open(store.Options{Dir: s.dir, Fsync: store.FsyncNone})
	if err != nil {
		return err
	}
	cfg := s.w.h.Profile().Service
	cfg.Store = st
	s.st, s.srv = st, service.New(cfg)
	s.tgt.inner = loadgen.NewHandlerTarget(s.srv.Handler())
	p, errs := s.run(s.w.prime)
	if len(errs) > 0 {
		return fmt.Errorf("serve set-up: %s", errs[0])
	}
	s.totals.uploads = append(s.totals.uploads, p.uploads...)
	return nil
}

// shut stops the server and drops its op log, and returns the bytes the
// log grew by since the body of the last pass began. The log is read once
// the batch timer has flushed it, and then abandoned: Store.Close would
// first write a snapshot of the whole state, which takes longer than the
// pass.
func (s *serveSystem) shut(bodyStart int64) int64 {
	s.srv.Close()
	grown := settledLogBytes(s.dir) - bodyStart
	s.st.Abandon()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing op log:", err)
	}
	s.st, s.srv = nil, nil
	return grown
}

// settledLogBytes waits until the op log's size holds still for several
// flush windows of the batch timer (2 ms) and returns it.
func settledLogBytes(dir string) int64 {
	n := logBytes(dir)
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := logBytes(dir)
		if m == n {
			break
		}
		n = m
	}
	return n
}

// run runs one pass of h through the timing target and lists its
// failures: transport errors, non-200 responses and certifier violations.
func (s *serveSystem) run(h *loadgen.Harness) (passRecord, []string) {
	s.tgt.beginPass(s.dir)
	rep, err := h.Run(s.tgt)
	p := s.tgt.endPass()
	if err != nil {
		return p, []string{"pass: " + err.Error()}
	}
	var errs []string
	for i := 0; i < p.non200; i++ {
		errs = append(errs, "non-200 response")
	}
	if v := rep.Certification.Violations; v > 0 {
		for i := 0; i < v; i++ {
			errs = append(errs, fmt.Sprintf("certifier violation (%d in pass): %v", v, rep.Certification.ViolationSamples))
		}
	}
	return p, errs
}

// step sets up a fresh server unless the last set-up is unused, runs one
// measured pass on it and shuts it down. Only the pass's body counts as
// busy time and allocation.
func (s *serveSystem) step(op int) (stepResult, error) {
	var r stepResult
	allocStart := totalAlloc()
	if s.st == nil {
		start := time.Now()
		if err := s.open(); err != nil {
			return r, err
		}
		r.setupS = []float64{time.Since(start).Seconds()}
	}
	s.tgt.setOp(op)
	p, errs := s.run(s.w.h)
	s.tgt.setOp(-1)
	grown := s.shut(p.logAtStart)
	if n := len(s.tgt.graphs); n != s.w.h.Profile().Instances {
		return r, fmt.Errorf("serve: the measured pass used %d instances, the set-up uploaded %d", n, s.w.h.Profile().Instances)
	}
	r.lat, r.quality, r.migration, r.errs = p.lat, p.quality, p.migration, errs
	r.busy = p.end.Sub(p.start)
	r.outsideAlloc = totalAlloc() - allocStart
	if p.allocAtEnd > p.allocAtStart { // the body ran to its end
		r.outsideAlloc -= p.allocAtEnd - p.allocAtStart
	}
	for _, c := range p.class {
		r.class = append(r.class, c.String())
	}
	t := &s.totals
	t.passes++
	t.requests += len(p.lat)
	t.classes = append(t.classes, p.class...)
	t.coalesced += p.post.Coalesced - p.pre.Coalesced
	t.pipeline += p.post.PipelineRuns - p.pre.PipelineRuns
	t.shed += p.post.RequestsShed - p.pre.RequestsShed
	t.records += p.post.LogRecords - p.pre.LogRecords
	t.logBytes += grown
	t.clientGap += time.Duration(s.w.o.par)*r.busy - p.inDo
	return r, nil
}

// logBytes sums the sizes of the op log's segments (snapshots excluded).
func logBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

func (s *serveSystem) finish(ph *phase) {
	t := &s.totals
	ops := float64(t.requests)
	classMean := func(c reqClass) float64 {
		var xs []float64
		for i, name := range ph.class {
			if name == c.String() {
				xs = append(xs, ph.lat[i])
			}
		}
		return mean(xs)
	}
	count := map[reqClass]int{}
	for _, c := range t.classes {
		count[c]++
	}
	hits := count[partitionHit] + count[repartitionHit] + count[churnHit]
	set := func(name string, v float64, unit string) { ph.layer[name] = metric{v, unit} }
	set("service.hit_ms", classMean(partitionHit), "ms")
	set("service.miss_ms", classMean(partitionMiss), "ms")
	set("service.repartition_ms", classMean(repartitionMiss), "ms")
	set("service.churn_ms", classMean(churnMiss), "ms")
	set("service.upload_ms", mean(t.uploads), "ms")
	// Hits by the responses' cached flag: no_cache partitions bypass the
	// cache's own counters.
	set("service.hit_ratio", ratio(float64(hits), ops), "ratio")
	set("service.coalesced_frac", ratio(float64(t.coalesced), ops), "ratio")
	set("service.pipeline_runs_per_op", ratio(float64(t.pipeline), ops), "count")
	set("service.shed_frac", ratio(float64(t.shed), ops), "ratio")
	set("store.records_per_op", ratio(float64(t.records), ops), "count")
	set("store.bytes_per_op", ratio(float64(t.logBytes), ops), "B")
	set("loadgen.certify_ms", ratio(ms(t.clientGap), ops), "ms")

	shares := map[string]float64{}
	for c, n := range count {
		shares[c.String()] = ratio(float64(n), ops)
	}
	ph.details["request_shares"] = shares
	ph.details["trace_passes"] = t.passes
	ph.details["server_setups"] = s.opened

	// Stationarity: every drift and churn request was new to its server,
	// and both halves of the measured requests have the same hit share.
	if n := count[repartitionHit] + count[churnHit]; n > 0 {
		ph.unsteady = append(ph.unsteady, fmt.Sprintf("%d drift or churn requests hit the cache", n))
	}
	half := len(t.classes) / 2
	first, second := hitShare(t.classes[:half]), hitShare(t.classes[half:])
	ph.details["hit_ratio_halves"] = []float64{first, second}
	if math.Abs(first-second) > 0.01 {
		ph.unsteady = append(ph.unsteady, fmt.Sprintf("hit share %.3f in the first half, %.3f in the second", first, second))
	}
}

func hitShare(cs []reqClass) float64 {
	hits := 0
	for _, c := range cs {
		if c == partitionHit || c == repartitionHit || c == churnHit {
			hits++
		}
	}
	return ratio(float64(hits), float64(len(cs)))
}

func (s *serveSystem) close() {
	if s.st != nil {
		s.shut(0)
	}
}

// reqClass is a request's class: endpoint, and whether the result cache
// answered it.
type reqClass int

const (
	partitionHit reqClass = iota
	partitionMiss
	repartitionHit
	repartitionMiss
	churnHit
	churnMiss
)

func (c reqClass) String() string {
	return [...]string{"partition_hit", "partition_miss", "repartition_hit",
		"repartition_miss", "churn_hit", "churn_miss"}[c]
}

// timingTarget is the benchmark's loadgen.Target: it times every request
// the harness sends, classifies it, and reads the quality figures off the
// responses. The harness reads /v1/stats right before and right after the
// measured body of a pass; those two calls delimit the body.
type timingTarget struct {
	inner loadgen.Target
	tr    *tracer

	mu     sync.Mutex
	graphs map[string]*graph.Graph // uploaded instances by id
	bounds map[string]float64      // Theorem 5 shape by id and k
	dir    string                  // the server's op log
	inBody bool
	op     int
	pass   passRecord
}

// passRecord is what the target saw during one pass's measured body.
type passRecord struct {
	lat        []float64
	class      []reqClass
	uploads    []float64 // ms, prologue uploads
	non200     int
	quality    []float64
	migration  []float64
	start, end time.Time
	inDo       time.Duration
	pre, post  service.StatsResponse
	logAtStart int64 // op-log bytes when the body began

	allocAtStart, allocAtEnd uint64 // the heap's cumulative allocation at the body's ends
}

func (t *timingTarget) beginPass(dir string) {
	t.mu.Lock()
	t.pass, t.dir, t.inBody = passRecord{}, dir, false
	t.mu.Unlock()
}

func (t *timingTarget) endPass() passRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pass
}

func (t *timingTarget) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *timingTarget) Do(method, path, contentType string, body []byte) (int, []byte, error) {
	if method == http.MethodGet && path == "/v1/stats" {
		status, data, err := t.inner.Do(method, path, contentType, body)
		var st service.StatsResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(data, &st)
		}
		t.mu.Lock()
		if !t.inBody {
			// The prologue's records were flushed while it re-uploaded
			// and re-warmed, so the log's size here is the body's start.
			t.pass.logAtStart = logBytes(t.dir)
			t.pass.allocAtStart = totalAlloc()
			t.pass.pre, t.pass.start = st, time.Now()
		} else {
			t.pass.post, t.pass.end = st, time.Now()
			t.pass.allocAtEnd = totalAlloc()
		}
		t.inBody = !t.inBody
		t.mu.Unlock()
		return status, data, err
	}
	start := time.Now()
	status, data, err := t.inner.Do(method, path, contentType, body)
	stop := time.Now()
	if err != nil {
		return status, data, err
	}
	t.observe(path, body, status, data, start, stop)
	return status, data, err
}

// observe records one request. It reads the response by scanning the
// bytes instead of decoding them: a partition response carries the whole
// coloring, and decoding it again (~0.1 ms into a two-field struct at
// 3,200 vertices on the reference host, as long as a cache hit takes to
// serve) would spend the clients' share of the cores on the benchmark's
// own bookkeeping.
func (t *timingTarget) observe(path string, body []byte, status int, data []byte, start, stop time.Time) {
	var class reqClass
	quality, migration := -1.0, -1.0
	cached := bytes.Contains(data, []byte(`"cached":true`))
	switch path {
	case "/v1/graphs":
		// Uploads belong to the prologue, before the measured body.
		if status == http.StatusOK {
			t.noteUpload(body, data)
		}
		t.mu.Lock()
		t.pass.uploads = append(t.pass.uploads, ms(stop.Sub(start)))
		t.mu.Unlock()
		return
	case "/v1/partition":
		class = partitionMiss
		if cached {
			class = partitionHit
		}
		if status == http.StatusOK {
			quality = t.boundaryRatio(body, data)
		}
	case "/v1/repartition":
		class = repartitionMiss
		if bytes.Contains(body, []byte(`"topology":`)) {
			class = churnMiss
		}
		if cached {
			class--
		}
		if status == http.StatusOK {
			migration = jsonNumber(data, `"fraction":`)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inBody {
		return
	}
	t.pass.lat = append(t.pass.lat, ms(stop.Sub(start)))
	t.pass.class = append(t.pass.class, class)
	t.pass.inDo += stop.Sub(start)
	if status != http.StatusOK {
		t.pass.non200++
	}
	if quality >= 0 {
		t.pass.quality = append(t.pass.quality, quality)
	}
	if migration >= 0 {
		t.pass.migration = append(t.pass.migration, migration)
	}
	t.tr.record("service."+class.String(), start, stop, t.op)
}

// noteUpload keeps each uploaded instance for the Theorem 5 bound. The
// traced run times graph.Unmarshal on every upload body.
func (t *timingTarget) noteUpload(body, data []byte) {
	var up service.UploadResponse
	if json.Unmarshal(data, &up) != nil {
		return
	}
	t.mu.Lock()
	_, known := t.graphs[up.GraphID]
	op := t.op
	t.mu.Unlock()
	if known && t.tr == nil {
		return
	}
	start := time.Now()
	g, err := graph.Unmarshal(body)
	t.tr.record("graph.unmarshal", start, time.Now(), op)
	if err != nil {
		return
	}
	t.mu.Lock()
	t.graphs[up.GraphID] = g
	t.mu.Unlock()
}

// boundaryRatio is a partition response's max boundary over the Theorem 5
// shape of the instance it names, or −1 if the instance is unknown.
func (t *timingTarget) boundaryRatio(body, data []byte) float64 {
	var req service.PartitionRequest
	if json.Unmarshal(body, &req) != nil {
		return -1
	}
	key := req.GraphID + "/" + strconv.Itoa(req.K)
	t.mu.Lock()
	defer t.mu.Unlock()
	bound, ok := t.bounds[key]
	if !ok {
		g := t.graphs[req.GraphID]
		if g == nil {
			return -1
		}
		bound = core.TheoremBound(g, req.K, 2)
		t.bounds[key] = bound
	}
	return jsonNumber(data, `"max_boundary":`) / bound
}

// jsonNumber reads the number that follows key in a compact JSON
// document, or −1 if key is absent.
func jsonNumber(data []byte, key string) float64 {
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return -1
	}
	rest := data[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return -1
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return -1
	}
	return v
}
