// Package loadgen is the deterministic load-generation and certification
// harness for the partition-serving subsystem (DESIGN.md §7).
//
// A Profile describes a reproducible traffic experiment: a pool of
// climate-mesh instances (optionally the G̃ disjoint-copies construction of
// Lemma 40, which makes every served coloring lower-bound certifiable), a
// deterministic request trace mixing upload / partition / repartition /
// churn / burst operations, and a dispatch mode — open loop (Poisson arrivals) or
// closed loop (N looping clients). The same seed always yields the same
// trace (same operations, same instances, same drift steps, same arrival
// offsets); only wall-clock measurements vary between runs.
//
// Every successful response passes through an always-on Certifier that
// re-derives the served guarantees from the coloring instead of trusting
// the wire: completeness, Definition 1 strict balance, boundary
// consistency, the server-side content-hash identity of drifted instances,
// and — on copies instances — the executable Lemma 40 counting argument of
// internal/lower. A run with certifier violations is a failed run.
package loadgen

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/service"
	"repro/internal/workload"
)

// Mode selects how the measured body of the trace is dispatched.
type Mode string

const (
	// ModeOpen fires requests at their precomputed Poisson arrival offsets
	// regardless of completions (open loop: overload sheds, never queues in
	// the harness).
	ModeOpen Mode = "open"
	// ModeClosed runs a fixed number of clients, each issuing the next
	// trace operation as soon as its previous one completes.
	ModeClosed Mode = "closed"
)

// Kind is one traffic operation type.
type Kind string

const (
	// KindUpload re-uploads an instance body (idempotent by content hash).
	KindUpload Kind = "upload"
	// KindPartition is a single partition query.
	KindPartition Kind = "partition"
	// KindRepartition pushes one drift step of an instance through the
	// incremental path.
	KindRepartition Kind = "repartition"
	// KindBurst fires several partition queries at once: repeats of one
	// instance coalesce, and misses on distinct instances run side by
	// side, each in its own run slot.
	KindBurst Kind = "burst"
	// KindChurn pushes one topology-mutation step of an instance through
	// the repartition path: vertices and edges appear and disappear, and
	// the server must derive the mutated instance's canonical identity.
	KindChurn Kind = "churn"
)

// Mix is the relative operation weighting of the measured trace body.
type Mix struct {
	Upload      int `json:"upload"`
	Partition   int `json:"partition"`
	Repartition int `json:"repartition"`
	Burst       int `json:"burst"`
	Churn       int `json:"churn,omitempty"`
}

// Profile is a complete, reproducible load experiment description.
type Profile struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	Mode Mode   `json:"mode"`

	// Requests is the number of measured-body operations (the setup
	// prologue — one upload plus one warming partition per instance — is
	// not counted and runs sequentially before timing starts).
	Requests int `json:"requests"`
	// RatePerSec is the open-loop Poisson arrival rate.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Clients is the closed-loop concurrency.
	Clients int `json:"clients,omitempty"`

	Mix Mix `json:"mix"`

	// Instances is the pool size; each instance is a seeded ClimateMesh.
	Instances int `json:"instances"`
	MeshRows  int `json:"mesh_rows"`
	MeshCols  int `json:"mesh_cols"`
	// TildeCopies ≥ 2 builds every instance as G̃: that many disjoint
	// copies of its base mesh (lower.Copies), enabling the Lemma 40
	// certificate on every served coloring.
	TildeCopies int     `json:"tilde_copies,omitempty"`
	CostSpread  float64 `json:"cost_spread"`

	// K is the part count of the certified serving flow (uploads are
	// warmed and repartitions are issued at this k). Partition operations
	// alternate deterministically between K and AltK when AltK > 0, to
	// diversify cache keys.
	K    int `json:"k"`
	AltK int `json:"alt_k,omitempty"`

	// NoCacheFraction marks roughly this fraction of partition operations
	// no_cache (cache-bypass): each becomes real pipeline work instead of
	// a hit, the knob that lets open-loop profiles outrun the server's run
	// slots and exercise shedding.
	NoCacheFraction float64 `json:"no_cache_fraction,omitempty"`

	// MultilevelFraction routes roughly this fraction of partition
	// operations through the multilevel (coarsen → solve → project →
	// refine) path at the server's defaults. Multilevel results live under
	// their own cache keys, so the mix exercises both pipelines and their
	// key separation; every multilevel response passes the same certifier.
	MultilevelFraction float64 `json:"multilevel_fraction,omitempty"`

	// DriftSteps is how many distinct day/night drift positions each
	// instance cycles through; repartition operations walk them in order.
	DriftSteps int `json:"drift_steps"`
	// ChurnSteps is how many cumulative topology-mutation steps each
	// instance's churn chain holds (mesh-refinement growth, region
	// failure, and join/leave scenarios, cycling); churn operations walk
	// them in order. Every step is base-relative, so churn requests are
	// order-independent and idempotent under concurrency.
	ChurnSteps int `json:"churn_steps,omitempty"`
	// BurstWidth is how many concurrent partitions one burst issues.
	BurstWidth int `json:"burst_width"`

	// ScratchEvery compares every Nth repartition response against a
	// from-scratch pipeline run on the same drifted instance (0 disables).
	ScratchEvery int `json:"scratch_every,omitempty"`
	// ScratchTol is the polish tolerance for that comparison: the served
	// max boundary may exceed the from-scratch one by at most this factor.
	ScratchTol float64 `json:"scratch_tol,omitempty"`
	// BoundFactor is the advisory Theorem 4 multiplier passed to
	// repro.Verify (quality signal only, never a violation).
	BoundFactor float64 `json:"bound_factor"`

	// Service configures the in-process server cmd/loadgen builds when no
	// live target is given. Zero values select the service defaults.
	Service service.Config `json:"-"`
}

// Quick is the canonical fast profile: the acceptance run of
// `loadgen -quick` and the CI perf-trajectory profile behind
// BENCH_service.json. Small enough to finish in a couple of seconds,
// rich enough to exercise every endpoint, the cache, the coalescer, the
// run slots, and the certificate machinery.
func Quick() Profile {
	return Profile{
		Name:         "quick",
		Seed:         1,
		Mode:         ModeClosed,
		Requests:     160,
		Clients:      4,
		Mix:          Mix{Upload: 1, Partition: 6, Repartition: 4, Burst: 1, Churn: 2},
		Instances:    6,
		MeshRows:     12,
		MeshCols:     12,
		TildeCopies:  2,
		CostSpread:   3,
		K:            8,
		AltK:         4,
		DriftSteps:   4,
		ChurnSteps:   3,
		BurstWidth:   4,
		ScratchEvery: 4,
		// The 96×96 acceptance mesh pins 1.25 (cmd/reprosrv); these 12×12
		// instances have far fewer boundary edges, so the relative
		// polish-stage variance is larger — 1.6 holds with margin across
		// seed sweeps while still catching a broken incremental path.
		ScratchTol:  1.6,
		BoundFactor: 20,
		// A quarter of the partition traffic takes the multilevel path, so
		// the quick profile certifies both pipelines and pins their cache-
		// key separation on every CI run.
		MultilevelFraction: 0.25,
		// MaxRuns leaves room for every client's miss plus a burst's, so
		// the quick profile does not shed even on a single-core runner
		// (shed behavior is Surge's job).
		Service: service.Config{GraphStoreSize: 256, MaxRuns: 8},
	}
}

// Soak is the sustained closed-loop profile: larger instances, more
// clients, long drift chains.
func Soak() Profile {
	p := Quick()
	p.Name = "soak"
	p.Requests = 1500
	p.Clients = 8
	p.Instances = 8
	p.MeshRows, p.MeshCols = 20, 20
	p.K, p.AltK = 16, 8
	p.DriftSteps = 8
	p.ScratchEvery = 25
	return p
}

// Surge is the open-loop overload profile: Poisson arrivals faster than
// the pipeline can absorb, against a single run slot shared by partition
// and repartition misses, so shedding behavior (503 at admission, never
// an unbounded backlog) is observable in the report. Bigger meshes
// and a drained cache (NoCacheFraction-free misses via many distinct
// drift keys) keep real pipeline work in flight.
func Surge() Profile {
	p := Quick()
	p.Name = "surge"
	p.Mode = ModeOpen
	p.Requests = 400
	// Retuned when the stage-pipeline PR's traversal rework sped the
	// pipeline hot paths up ~3×: bigger instances (work per op must
	// outrun the single run slot even on a fast machine) and a rate
	// beyond what the open loop can dispatch, or the overload this
	// profile exists to observe never materializes.
	p.RatePerSec = 16000
	p.Clients = 0
	p.MeshRows, p.MeshCols = 32, 32
	p.DriftSteps = 12
	p.Mix = Mix{Upload: 1, Partition: 4, Repartition: 8, Burst: 2}
	p.NoCacheFraction = 0.75
	p.ScratchEvery = 40
	// Surge drifts swing through a full phase cycle (12 steps against a
	// step-0 prior), the widest warm-start gap of the profiles; 1.8
	// matches the bound the library-level drift property test pins.
	p.ScratchTol = 1.8
	p.Service = service.Config{GraphStoreSize: 512, MaxRuns: 1}
	return p
}

// Profiles maps the named built-in profiles.
func Profiles() map[string]func() Profile {
	return map[string]func() Profile{
		"quick": Quick,
		"soak":  Soak,
		"surge": Surge,
	}
}

// validate rejects profiles the trace generator cannot honor.
func (p Profile) validate() error {
	switch {
	case p.Requests < 1:
		return fmt.Errorf("loadgen: Requests must be ≥ 1, got %d", p.Requests)
	case p.Instances < 1:
		return fmt.Errorf("loadgen: Instances must be ≥ 1, got %d", p.Instances)
	case p.MeshRows < 2 || p.MeshCols < 2:
		return fmt.Errorf("loadgen: mesh must be at least 2×2, got %d×%d", p.MeshRows, p.MeshCols)
	case p.K < 2:
		return fmt.Errorf("loadgen: K must be ≥ 2, got %d", p.K)
	case p.DriftSteps < 1 && p.Mix.Repartition > 0:
		return fmt.Errorf("loadgen: repartition operations need DriftSteps ≥ 1")
	case p.ChurnSteps < 1 && p.Mix.Churn > 0:
		return fmt.Errorf("loadgen: churn operations need ChurnSteps ≥ 1")
	case p.Mode == ModeOpen && p.RatePerSec <= 0:
		return fmt.Errorf("loadgen: open-loop mode needs RatePerSec > 0")
	case p.Mode == ModeClosed && p.Clients < 1:
		return fmt.Errorf("loadgen: closed-loop mode needs Clients ≥ 1")
	case p.Mode != ModeOpen && p.Mode != ModeClosed:
		return fmt.Errorf("loadgen: unknown mode %q", p.Mode)
	case p.Mix.Upload+p.Mix.Partition+p.Mix.Repartition+p.Mix.Burst+p.Mix.Churn <= 0:
		return fmt.Errorf("loadgen: the operation mix is empty")
	case p.Mix.Burst > 0 && p.BurstWidth < 1:
		return fmt.Errorf("loadgen: burst operations need BurstWidth ≥ 1")
	}
	return nil
}

// instance is one materialized pool entry: the step-0 graph (possibly a
// G̃ copies construction) plus every drifted variant, with their content
// hashes precomputed so the harness can verify server-derived identities.
type instance struct {
	baseN  int // vertices per copy
	copies int
	steps  []*graph.Graph // steps[0] is the uploaded original
	ids    []string       // ids[j] = service.GraphHash(steps[j])
	upload []byte         // marshaled steps[0] body

	// Churn chain: churnMuts[j-1] is churn step j's cumulative base-
	// relative topology block, churn[j-1] the independently materialized
	// mutated graph it denotes, churnIDs[j-1] its canonical identity —
	// the value the server's incremental digest patch must reproduce.
	churnMuts []service.TopologyWire
	churn     []*graph.Graph
	churnIDs  []string
}

// driftFactor is the deterministic day/night modulation of drift step j:
// an illumination band over the longitude (column) axis whose phase
// advances with the step index. Strictly positive, so weights stay valid.
func driftFactor(col, cols, step, steps int) float64 {
	phase := 2 * math.Pi * (float64(col)/float64(cols) + float64(step)/float64(steps+1))
	return 0.75 + 0.5*math.Sin(phase)
}

// buildInstances materializes the instance pool: every graph the trace can
// name, at every drift step, with precomputed canonical identities.
func buildInstances(p Profile) []*instance {
	out := make([]*instance, p.Instances)
	for i := range out {
		base := workload.ClimateMesh(p.MeshRows, p.MeshCols, p.CostSpread, p.Seed+7919*int64(i)+1)
		g, copies := base, 1
		if p.TildeCopies >= 2 {
			g, copies = lower.Copies(base, p.TildeCopies), p.TildeCopies
		}
		in := &instance{
			baseN:  base.N(),
			copies: copies,
			steps:  make([]*graph.Graph, p.DriftSteps+1),
			ids:    make([]string, p.DriftSteps+1),
		}
		in.steps[0] = g
		for j := 1; j <= p.DriftSteps; j++ {
			h := g.Clone()
			for v := range h.Weight {
				col := (v % in.baseN) % p.MeshCols
				h.Weight[v] = g.Weight[v] * driftFactor(col, p.MeshCols, j, p.DriftSteps)
			}
			in.steps[j] = h
		}
		for j, sg := range in.steps {
			in.ids[j] = service.GraphHash(sg)
		}
		if p.ChurnSteps > 0 {
			in.churnMuts = churnMutations(g, p.ChurnSteps, p.Seed+104729*int64(i)+13)
			in.churn = make([]*graph.Graph, p.ChurnSteps)
			in.churnIDs = make([]string, p.ChurnSteps)
			for j := range in.churnMuts {
				mg, err := materializeChurn(g, &in.churnMuts[j])
				if err != nil {
					// The generator only emits valid blocks; a failure here is
					// a bug in the harness itself.
					panic(fmt.Sprintf("loadgen: churn chain materialization: %v", err))
				}
				in.churn[j] = mg
				in.churnIDs[j] = service.GraphHash(mg)
			}
		}
		in.upload = graph.Marshal(g)
		out[i] = in
	}
	return out
}

// Request is one trace operation. The trace is pure data: everything a
// dispatcher needs to issue the operation, precomputed deterministically.
type Request struct {
	Index int  `json:"index"`
	Kind  Kind `json:"kind"`
	// Inst is the instance-pool index this operation targets.
	Inst int `json:"inst"`
	// Step is the drift step of a repartition, or the churn-chain step of
	// a churn operation (1-based in both cases).
	Step int `json:"step,omitempty"`
	K    int `json:"k"`
	// ArrivalNS is the open-loop arrival offset from the start of the
	// measured body (zero in closed-loop traces).
	ArrivalNS int64 `json:"arrival_ns,omitempty"`
	// Burst lists the instance indices of a burst's concurrent partitions.
	Burst []int `json:"burst,omitempty"`
	// NoCache bypasses the result cache for a partition operation.
	NoCache bool `json:"no_cache,omitempty"`
	// Multilevel routes a partition operation through the multilevel path.
	Multilevel bool `json:"multilevel,omitempty"`
	// Scratch marks a repartition for post-run comparison against a
	// from-scratch pipeline run on the same drifted instance.
	Scratch bool `json:"scratch,omitempty"`
}

// buildTrace generates the deterministic measured body. All randomness
// flows from the profile seed through one generator in one fixed order, so
// the trace is a pure function of the profile.
func buildTrace(p Profile, insts []*instance) []Request {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed10ad))
	total := p.Mix.Upload + p.Mix.Partition + p.Mix.Repartition + p.Mix.Burst + p.Mix.Churn
	driftAt := make([]int, len(insts)) // next drift step per instance
	churnAt := make([]int, len(insts)) // next churn step per instance
	repartitions := 0
	var arrival float64

	trace := make([]Request, p.Requests)
	for i := range trace {
		r := Request{Index: i, K: p.K}
		if p.Mode == ModeOpen {
			// Poisson arrivals: exponential inter-arrival times.
			arrival += rng.ExpFloat64() / p.RatePerSec
			r.ArrivalNS = int64(arrival * 1e9)
		}
		pick := rng.Intn(total)
		switch {
		case pick < p.Mix.Upload:
			r.Kind = KindUpload
			r.Inst = rng.Intn(len(insts))
		case pick < p.Mix.Upload+p.Mix.Partition:
			r.Kind = KindPartition
			r.Inst = rng.Intn(len(insts))
			if p.AltK > 0 && rng.Intn(3) == 0 {
				r.K = p.AltK
			}
			if p.NoCacheFraction > 0 && rng.Float64() < p.NoCacheFraction {
				r.NoCache = true
			}
			if p.MultilevelFraction > 0 && rng.Float64() < p.MultilevelFraction {
				r.Multilevel = true
			}
		case pick < p.Mix.Upload+p.Mix.Partition+p.Mix.Repartition:
			r.Kind = KindRepartition
			r.Inst = rng.Intn(len(insts))
			r.Step = driftAt[r.Inst]%p.DriftSteps + 1
			driftAt[r.Inst]++
			repartitions++
			if p.ScratchEvery > 0 && repartitions%p.ScratchEvery == 0 {
				r.Scratch = true
			}
		case pick < p.Mix.Upload+p.Mix.Partition+p.Mix.Repartition+p.Mix.Burst:
			r.Kind = KindBurst
			r.Inst = rng.Intn(len(insts))
			r.Burst = make([]int, p.BurstWidth)
			for b := range r.Burst {
				r.Burst[b] = rng.Intn(len(insts))
			}
		default:
			r.Kind = KindChurn
			r.Inst = rng.Intn(len(insts))
			r.Step = churnAt[r.Inst]%p.ChurnSteps + 1
			churnAt[r.Inst]++
		}
		trace[i] = r
	}
	return trace
}

// TraceDigest fingerprints a trace: the determinism witness recorded in
// the report ("same seed ⇒ same request trace" is checkable as "same seed
// ⇒ same digest").
func TraceDigest(trace []Request) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range trace {
		// Request marshaling cannot fail: all fields are plain data.
		_ = enc.Encode(&trace[i])
	}
	return fmt.Sprintf("t-%x", h.Sum(nil)[:16])
}
