package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/splitter"
	"repro/internal/workload"
)

const (
	// solveMeshes is how many seeded meshes direct and multilevel cycle
	// through, round robin. A mesh's partition time and boundary ratio
	// depend on the mesh (±20% between seeds), so a run averages over
	// several. Five equal shares of the 60–90 ops of a run put the median
	// in the middle class and the tail (10 ops beyond) inside the top
	// one, away from the class borders.
	solveMeshes = 5
	// sessionMeshes is how many sessions the sessions workload cycles
	// through. A rebalancing period costs about the same on every mesh.
	sessionMeshes = 3
	// costSpread is the ClimateMesh edge-cost fluctuation of every
	// workload (the loadgen profiles use the same).
	costSpread = 3
	// boundFactor is the advisory Theorem 4 multiplier passed to Verify.
	boundFactor = 20
	// resetupEvery is how often direct and multilevel set up afresh in the
	// measured loop. A set-up is one op long, and the host's speed phases
	// last seconds, so set-ups taken back to back share a phase; spread
	// over the run, their median is steadier.
	resetupEvery = 10
	// driftPhases is the length of the sessions day/night cycle.
	driftPhases = 8
	// replaceShare is the share of vertices a sessions op replaces.
	replaceShare = 0.005
)

// meshes generates the run's n seeded ClimateMeshes; seed s uses mesh
// seeds s·n + i, so different run seeds never share a mesh.
func meshes(o options, side, n int) []*graph.Graph {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = workload.ClimateMesh(side, side, costSpread, o.seed*int64(n)+int64(i))
	}
	return gs
}

func meshesDigest(gs []*graph.Graph) string {
	ids := make([]string, len(gs))
	for i, g := range gs {
		ids[i] = graph.ContentHash(g)
	}
	return chainDigest(ids)
}

// verify runs repro.Verify on a library result and describes a failure.
func verify(g *graph.Graph, k int, res repro.Result, err error) error {
	if err != nil {
		return err
	}
	if v := repro.Verify(g, repro.Options{K: k}, res, boundFactor); !v.OK() {
		return fmt.Errorf("verify: %s", strings.Join(v.Errors, "; "))
	}
	return nil
}

// solve is the direct and multilevel workload: one caller in a closed loop
// partitions the run's meshes in turn with Engine.PartitionWithOptions.
type solve struct {
	o          options
	gs         []*graph.Graph
	warm       *graph.Graph // the set-up's warm-up input, the same for every seed
	multilevel bool
}

// warmSeed is the mesh seed of the set-up's warm-up op. A seeded mesh
// would carry the seed-to-seed spread of one op's cost into setup_s.
const warmSeed = 1 << 40

func newSolve(o options, side int, multilevel bool) *solve {
	return &solve{
		o: o, gs: meshes(o, side, solveMeshes), multilevel: multilevel,
		warm: workload.ClimateMesh(side, side, costSpread, warmSeed),
	}
}

func (w *solve) inputDigest() string { return meshesDigest(w.gs) }

func (w *solve) setup(tr *tracer) (system, error) {
	s := &solveSystem{w: w, tr: tr, first: make([]string, len(w.gs)), diags: make([]core.Diagnostics, len(w.gs))}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

type solveSystem struct {
	w     *solve
	eng   *repro.Engine
	tr    *tracer
	calls int
	first []string           // coloring digest of each mesh's first op; later ops must repeat it
	diags []core.Diagnostics // each mesh's latest diagnostics
}

// start builds a fresh engine and warms it with one op on the warm-up
// mesh. The engine keeps no per-graph state, so one op warms it for every
// mesh.
func (s *solveSystem) start() error {
	opts := []repro.EngineOption{repro.WithParallelism(s.w.o.par)}
	if s.w.multilevel {
		opts = append(opts, repro.WithMultilevel(repro.Multilevel{}))
	}
	if s.tr != nil {
		opts = append(opts, repro.WithObserver(stageObserver{s.tr}))
	}
	s.eng = repro.NewEngine(opts...)
	k := s.w.o.size.K
	res, err := s.eng.PartitionWithOptions(context.Background(), s.w.warm, repro.Options{K: k})
	if err := verify(s.w.warm, k, res, err); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	return nil
}

// step runs the next op, after a fresh set-up every resetupEvery ops; the
// fresh engine must repeat each mesh's coloring like the first.
func (s *solveSystem) step(op int) (stepResult, error) {
	if op == 0 || op%resetupEvery != 0 {
		return s.run(op), nil
	}
	setupStart, allocStart := time.Now(), totalAlloc()
	s.tr.setOp(-1)
	err := s.start()
	s.tr.setOp(op)
	if err != nil {
		return stepResult{}, err
	}
	outside := totalAlloc() - allocStart
	start := time.Now()
	r := s.run(op)
	r.setupS = []float64{start.Sub(setupStart).Seconds()}
	r.busy = time.Since(start)
	r.outsideAlloc = outside
	return r, nil
}

func (s *solveSystem) run(op int) stepResult {
	i := s.calls % len(s.w.gs)
	s.calls++
	g, k := s.w.gs[i], s.w.o.size.K
	opt := repro.Options{K: k}
	if s.tr != nil && !s.w.multilevel {
		// The engine's default direct oracle, minted per run as the engine
		// would, behind a timer. (On the multilevel path a caller-supplied
		// oracle would disable the warm per-level oracles, so it is never
		// wrapped there.)
		rf := splitter.NewRefined(g, splitter.NewBFS(g))
		rf.Par = s.w.o.par
		opt.Splitter = timedSplitter{inner: rf, t: s.tr, op: op}
	}
	start := time.Now()
	res, err := s.eng.PartitionWithOptions(context.Background(), g, opt)
	r := stepResult{lat: []float64{ms(time.Since(start))}, class: []string{fmt.Sprintf("mesh%d", i)}}
	if err := verify(g, k, res, err); err != nil {
		r.errs = []string{err.Error()}
		return r
	}
	r.digest = coloringDigest(res.Coloring)
	if s.first[i] == "" {
		s.first[i] = r.digest
	} else if r.digest != s.first[i] {
		r.errs = []string{fmt.Sprintf("mesh %d: coloring differs from its first op's", i)}
		return r
	}
	r.quality = []float64{res.Stats.MaxBoundary / core.TheoremBound(g, k, 2)}
	s.diags[i] = res.Diag
	s.tr.timed("measure.pi", func() { measure.SplittingCostPar(g, 2, 1, s.w.o.par) })
	return r
}

func (s *solveSystem) finish(ph *phase) {
	// Later ops of a mesh repeat its first op's result (checked), so the
	// coloring digest and the quality mean cover one op per mesh: the
	// figures then repeat exactly at a seed, whatever the op count.
	n := min(len(ph.digests), len(s.w.gs))
	ph.digests, ph.quality = ph.digests[:n], ph.quality[:n]
	var calls, warm int64
	levels := 0
	for _, d := range s.diags {
		levels += d.Levels
		for _, l := range d.LevelProfile {
			calls += l.SplitterCalls
			warm += l.WarmHits
		}
	}
	ph.layer["coarsen.levels"] = metric{float64(levels) / float64(len(s.diags)), "count"}
	ph.layer["splitter.warm_hit_ratio"] = metric{ratio(float64(warm), float64(calls)), "ratio"}
	ph.details["stationarity"] = fmt.Sprintf("%d meshes cycled round robin; each repeats its coloring", len(s.w.gs))
}

func (s *solveSystem) close() {}

// sessions is the drift workload: one multilevel Instance per mesh, cycled
// round robin. Each op is one rebalancing period of a session: two
// Repartition calls, a day/night weight drift and an in-place replacement
// of ~0.5% of the vertices.
type sessions struct {
	o    options
	gs   []*graph.Graph
	side int
}

func newSessions(o options) *sessions {
	return &sessions{o: o, gs: meshes(o, o.size.SessionsSide, sessionMeshes), side: o.size.SessionsSide}
}

func (w *sessions) inputDigest() string { return meshesDigest(w.gs) }

// driftFactor is the day/night modulation of a mesh column at a phase: an
// illumination band over the longitude axis whose phase advances with the
// time of day.
func driftFactor(col, cols, phase int) float64 {
	x := 2 * math.Pi * (float64(col)/float64(cols) + float64(phase)/driftPhases)
	return 0.75 + 0.5*math.Sin(x)
}

// setup starts one session per mesh with Instance.Partition and warms each
// with one op.
func (w *sessions) setup(tr *tracer) (system, error) {
	ctx := context.Background()
	k := w.o.size.K
	opts := []repro.EngineOption{repro.WithParallelism(w.o.par), repro.WithMultilevel(repro.Multilevel{})}
	if tr != nil {
		opts = append(opts, repro.WithObserver(stageObserver{tr}))
	}
	eng := repro.NewEngine(opts...)
	s := &sessionSystem{w: w, tr: tr}
	for i, g := range w.gs {
		inst, err := eng.NewInstance(g, repro.Options{K: k})
		if err != nil {
			return nil, err
		}
		res, err := inst.Partition(ctx)
		if err := verify(g, k, res, err); err != nil {
			return nil, fmt.Errorf("initial partition: %w", err)
		}
		c := newChain(inst, w.o.seed*sessionMeshes+int64(i), core.TheoremBound(g, k, 2), w.side)
		s.chains = append(s.chains, c)
		s.levels += res.Diag.Levels
		// Instance.Partition builds its hierarchy outside any Observer
		// stage, so the coarsen layer is timed beside it.
		copt := repro.Multilevel{}.CoarsenOptions(g, k)
		copt.Parallelism = w.o.par
		tr.timed("coarsen.build", func() { _, err = coarsen.Build(ctx, g, copt) })
		if err != nil {
			return nil, err
		}
	}
	for range s.chains {
		if r, _ := s.step(-1); len(r.errs) > 0 {
			return nil, fmt.Errorf("warm-up op: %s", r.errs[0])
		}
	}
	return s, nil
}

type sessionSystem struct {
	w      *sessions
	tr     *tracer
	chains []*chain
	calls  int
	levels int // summed over the sessions' initial partitions
}

// chain is one session and the benchmark's own account of its graph, by
// current id: every repartition must leave the instance's weights equal
// to it. Its buffers are reused from op to op, so the measured phase
// allocates little besides the program's own work.
type chain struct {
	inst    *repro.Instance
	seed    int64
	bound   float64
	weights []float64
	col     []int // mesh column of the vertex at each id
	phase   int
	n, m    int
	pos     int // ops run on this session, warm-up included

	scale            []repro.WeightChange // the drift delta; the instance keeps no reference to it
	spareW           []float64            // renumber's target for weights
	spareCol         []int                // and for col
	blocked, removed []bool               // all false between ops
}

func newChain(inst *repro.Instance, seed int64, bound float64, side int) *chain {
	g := inst.Graph()
	n := g.N()
	c := &chain{
		inst: inst, seed: seed, bound: bound, n: n, m: g.M(),
		weights: slices.Clone(g.Weight), col: make([]int, n),
		scale: make([]repro.WeightChange, n), spareW: make([]float64, n), spareCol: make([]int, n),
		blocked: make([]bool, n), removed: make([]bool, n),
	}
	for v := range c.col {
		c.col[v] = v % side
		c.scale[v].V = int32(v)
	}
	return c
}

func (s *sessionSystem) step(op int) (stepResult, error) {
	i := s.calls % len(s.chains)
	c := s.chains[i]
	s.calls++
	// Migrations are kept for the quality prefix only (see finish), so
	// the growing session history is read only there.
	r := c.step(s.w, s.tr, op >= 0 && op < s.w.o.size.QualityOps)
	r.class = []string{fmt.Sprintf("session%d", i)}
	if len(r.errs) == 0 {
		s.tr.timed("measure.pi", func() { measure.SplittingCostPar(c.inst.Graph(), 2, 1, s.w.o.par) })
	}
	return r, nil
}

func (c *chain) step(w *sessions, tr *tracer, migrations bool) stepResult {
	ctx := context.Background()
	var r stepResult
	defer func() { c.pos++ }()

	// Day/night drift: advance one phase, applied as Scale ratios, so the
	// weights cycle through driftPhases phases back to base.
	next := (c.phase + 1) % driftPhases
	for v := range c.scale {
		col := c.col[v]
		f := driftFactor(col, w.side, next) / driftFactor(col, w.side, c.phase)
		c.scale[v].W = f
		c.weights[v] *= f
	}
	c.phase = next
	start := time.Now()
	id := tr.begin("repro.drift")
	drift, err := c.inst.Repartition(ctx, repro.Delta{Scale: c.scale})
	tr.end(id)
	lat := time.Since(start)
	if err := c.check(w.o.size.K, drift, err); err != nil {
		r.lat, r.errs = []float64{ms(lat)}, []string{"drift: " + err.Error()}
		return r
	}

	// Node replacement: an independent set of vertices is removed and
	// re-added with its neighbours, edge costs and weights.
	d, chosen := c.replacement()
	start = time.Now()
	id = tr.begin("repro.churn")
	churn, err := c.inst.Repartition(ctx, d)
	tr.end(id)
	lat += time.Since(start)
	r.lat = []float64{ms(lat)}
	c.renumber(chosen)
	if err := c.check(w.o.size.K, churn, err); err != nil {
		r.errs = []string{"churn: " + err.Error()}
		return r
	}
	r.quality = []float64{drift.Stats.MaxBoundary / c.bound, churn.Stats.MaxBoundary / c.bound}
	r.digest = chainDigest([]string{coloringDigest(drift.Coloring), coloringDigest(churn.Coloring)})
	if migrations {
		hist := c.inst.History()
		for _, m := range hist[len(hist)-2:] {
			r.migration = append(r.migration, m.Fraction)
		}
	}
	return r
}

// check verifies a repartition result against the instance's new graph
// and checks that the graph kept its size and the expected weights.
func (c *chain) check(k int, res repro.Result, err error) error {
	g := c.inst.Graph()
	if err := verify(g, k, res, err); err != nil {
		return err
	}
	if g.N() != c.n || g.M() != c.m {
		return fmt.Errorf("graph size changed to N=%d M=%d (want %d, %d)", g.N(), g.M(), c.n, c.m)
	}
	if !slices.Equal(g.Weight, c.weights) {
		return fmt.Errorf("instance weights differ from the applied drift")
	}
	return nil
}

// replacement draws this op's independent set (seeded by the chain
// position, so a seed replays the same chain) and builds its delta. Added
// vertex i has stable address N+i and replaces chosen[i].
func (c *chain) replacement() (repro.Delta, []int32) {
	g := c.inst.Graph()
	rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(c.pos)))
	want := max(1, int(float64(c.n)*replaceShare))
	chosen := make([]int32, 0, want)
	for len(chosen) < want {
		v := int32(rng.Intn(c.n))
		if c.blocked[v] {
			continue
		}
		chosen = append(chosen, v)
		c.blocked[v] = true
		for _, e := range g.IncidentEdges(v) {
			c.blocked[g.Other(e, v)] = true
		}
	}
	clear(c.blocked)
	slices.Sort(chosen)
	d := repro.Delta{RemoveVertices: chosen, AddVertices: make([]float64, len(chosen))}
	for i, v := range chosen {
		d.AddVertices[i] = c.weights[v]
		for _, e := range g.IncidentEdges(v) {
			d.AddEdges = append(d.AddEdges, repro.EdgeChange{U: int32(c.n + i), V: g.Other(e, v), Cost: g.Cost[e]})
		}
	}
	return d, chosen
}

// renumber moves the benchmark's weight and column accounts to the ids
// the replacement produced: survivors below the cut keep their ids,
// surviving tail vertices fill the freed low slots in ascending order,
// and the re-added vertices take the ids from the cut up (the documented
// repro.Delta compaction).
func (c *chain) renumber(chosen []int32) {
	cut := c.n - len(chosen)
	var slots []int
	for _, v := range chosen {
		c.removed[v] = true
		if int(v) < cut {
			slots = append(slots, int(v))
		}
	}
	w, col := c.spareW, c.spareCol
	next := 0
	for v := 0; v < c.n; v++ {
		if c.removed[v] {
			continue
		}
		to := v
		if v >= cut {
			to = slots[next]
			next++
		}
		w[to], col[to] = c.weights[v], c.col[v]
	}
	for i, v := range chosen {
		w[cut+i], col[cut+i] = c.weights[v], c.col[v]
		c.removed[v] = false
	}
	c.weights, c.spareW = w, c.weights
	c.col, c.spareCol = col, c.col
}

// finish keeps the quality figures, migrations and coloring digests to the
// fixed prefix of QualityOps measured ops, so they repeat exactly at one
// seed however many ops a run completes.
func (s *sessionSystem) finish(ph *phase) {
	q := s.w.o.size.QualityOps
	ph.quality = ph.quality[:min(len(ph.quality), 2*q)]
	ph.migration = ph.migration[:min(len(ph.migration), 2*q)]
	ph.digests = ph.digests[:min(len(ph.digests), q)]
	ph.layer["coarsen.levels"] = metric{float64(s.levels) / float64(len(s.chains)), "count"}
	ph.details["quality_ops"] = min(q, ph.attempted)
	c := s.chains[0]
	ph.details["stationarity"] = fmt.Sprintf("%d sessions cycled round robin; N=%d M=%d held after every repartition; drift cycle of %d phases",
		len(s.chains), c.n, c.m, driftPhases)
}

func (s *sessionSystem) close() {}
