package loadgen

import (
	"fmt"

	"repro/internal/service"
	"repro/internal/store"
)

// KillRestartReport summarizes the certified kill-and-restart scenario:
// a server killed mid-workload (SIGKILL semantics: the op-log's
// user-space buffer is dropped) must come back from its data dir warm
// enough to serve the remaining drift and churn steps with zero
// re-uploads, zero cold starts, and every certifier invariant intact —
// including derived-id identity, which pins the recovered digest chains
// to the harness's independent content hashes.
type KillRestartReport struct {
	Schema  string `json:"schema"`
	Profile string `json:"profile"`

	Phase1Steps int `json:"phase1_steps"`
	Phase2Steps int `json:"phase2_steps"`

	// RecoveredSessions etc. are the restarted server's own counters.
	RecoveredSessions int64 `json:"recovered_sessions"`
	LogRecords        int64 `json:"log_records"`
	Snapshots         int64 `json:"snapshots"`

	// Phase2ColdStarts must be zero: every phase-2 chain resumes a
	// recovered session or a recovered cached prior.
	Phase2ColdStarts int `json:"phase2_cold_starts"`

	CertChecked      int      `json:"cert_checked"`
	Violations       int      `json:"violations"`
	ViolationSamples []string `json:"violation_samples,omitempty"`
}

// OK reports whether the scenario certified cleanly.
func (r *KillRestartReport) OK() bool { return r.Violations == 0 }

// RunKillRestart executes the scenario against in-process servers backed
// by a durable store in dir (FsyncAlways, so the SIGKILL loses only
// unacknowledged work). Phase 1 runs setup plus the first half of every
// instance's drift and churn chains, then the server is killed. Phase 2
// restarts from dir and, without a single upload, repeats one phase-1
// delta per instance (expecting the identical derived id from the
// recovered cache) and drives the remaining halves of both chains warm.
// The final shutdown is graceful and must seal the log.
func RunKillRestart(p Profile, dir string) (*KillRestartReport, error) {
	h, err := New(p)
	if err != nil {
		return nil, err
	}
	cert := h.cert

	st1, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return nil, fmt.Errorf("loadgen: opening store: %w", err)
	}
	srv1 := service.New(service.Config{Store: st1})
	t1 := NewHandlerTarget(srv1.Handler())
	if err := h.setup(t1); err != nil {
		srv1.Close()
		st1.Abandon()
		return nil, err
	}

	driftCut := (p.DriftSteps + 1) / 2
	churnCut := (p.ChurnSteps + 1) / 2
	rec1 := newRecorder()
	phase1 := 0
	for i := range h.insts {
		for step := 1; step <= driftCut; step++ {
			h.repartitionOnce(t1, &Request{Kind: KindRepartition, Inst: i, Step: step, K: p.K}, 0, rec1)
			phase1++
		}
		for step := 1; step <= churnCut; step++ {
			h.churnOnce(t1, &Request{Kind: KindChurn, Inst: i, Step: step, K: p.K}, 0, rec1)
			phase1++
		}
	}

	// SIGKILL: server closed to new runs, op-log buffer dropped on the floor.
	srv1.Close()
	st1.Abandon()

	st2, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return nil, fmt.Errorf("loadgen: reopening store: %w", err)
	}
	if st2.Recovery().CleanShutdown {
		cert.violate("restart: a SIGKILL-ed log reads as cleanly shut down")
	}
	srv2 := service.New(service.Config{Store: st2})
	t2 := NewHandlerTarget(srv2.Handler())
	stats, err := fetchStats(t2)
	if err != nil {
		srv2.Close()
		st2.Close()
		return nil, err
	}
	if int(stats.RecoveredSessions) < len(h.insts) {
		cert.violate("restart: recovered %d sessions, want ≥ %d (one drift chain per instance)",
			stats.RecoveredSessions, len(h.insts))
	}
	if stats.Snapshots < 1 {
		cert.violate("restart: crash recovery wrote no snapshot")
	}

	// Phase 2: zero uploads. The repeat of the last phase-1 drift step
	// must reproduce its derived id (certifyRepartition pins it to the
	// harness's own content hash) straight from the recovered state.
	rec2 := newRecorder()
	phase2 := 0
	for i := range h.insts {
		h.repartitionOnce(t2, &Request{Kind: KindRepartition, Inst: i, Step: driftCut, K: p.K}, 0, rec2)
		phase2++
		for step := driftCut + 1; step <= p.DriftSteps; step++ {
			h.repartitionOnce(t2, &Request{Kind: KindRepartition, Inst: i, Step: step, K: p.K}, 0, rec2)
			phase2++
		}
		for step := churnCut + 1; step <= p.ChurnSteps; step++ {
			h.churnOnce(t2, &Request{Kind: KindChurn, Inst: i, Step: step, K: p.K}, 0, rec2)
			phase2++
		}
	}
	if rec2.coldStarts > 0 {
		cert.violate("restart: %d phase-2 cold starts (recovered state should warm every chain)", rec2.coldStarts)
	}
	// rec.repartitions counts churn steps too (topoMuts is a subset).
	if got := rec1.repartitions + rec2.repartitions; got < phase1+phase2 {
		cert.violate("restart: only %d of %d steps answered 200", got, phase1+phase2)
	}

	post, err := fetchStats(t2)
	if err != nil {
		srv2.Close()
		st2.Close()
		return nil, err
	}

	// Graceful shutdown: the sealed log is the satellite's contract.
	srv2.Close()
	if err := st2.Close(); err != nil {
		return nil, fmt.Errorf("loadgen: sealing store: %w", err)
	}
	st3, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("loadgen: verifying sealed log: %w", err)
	}
	if !st3.Recovery().CleanShutdown {
		cert.violate("restart: graceful close did not seal the log")
	}
	st3.Close()

	cert.mu.Lock()
	rep := &KillRestartReport{
		Schema:            ReportSchema,
		Profile:           p.Name,
		Phase1Steps:       phase1,
		Phase2Steps:       phase2,
		RecoveredSessions: stats.RecoveredSessions,
		LogRecords:        post.LogRecords,
		Snapshots:         post.Snapshots,
		Phase2ColdStarts:  rec2.coldStarts,
		CertChecked:       cert.checked,
		Violations:        cert.violations,
		ViolationSamples:  append([]string(nil), cert.samples...),
	}
	cert.mu.Unlock()
	return rep, nil
}
