package core

// This file is the multilevel (coarsen → solve → project → refine)
// decomposition path: a single pipeline stage that builds a heavy-edge
// coarsening hierarchy, solves the coarsest level with the direct stage
// sequence, and projects the coloring down the hierarchy, resuming the
// refine pipeline at every level.
//
// Invariants (DESIGN.md §9): the final coloring carries the identical
// Definition 1 strict-balance guarantee as the direct path — projection
// preserves class weights exactly, and each level's Refine re-certifies
// the window against that level's own ‖w‖∞ before polish runs. The
// boundary cost pays a small constant factor for solving on the proxy
// (heavy edges are hidden inside coarse vertices, so the surviving cut
// edges are the cheap ones); the seeded-corpus property test pins the
// documented factor. Cancellation holds everywhere: mid-coarsening, the
// coarsest solve, and every per-level refine all unwind to ctx.Err() with
// no partial Result.

import (
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/splitter"
)

// Multilevel configures the multilevel decomposition path (set it as
// Options.Multilevel; the zero value selects every default). The defaults
// are resolved against K, so two runs with equal (graph, K, Multilevel
// fields) always coarsen identically — the property the serving layer's
// cache key relies on.
type Multilevel struct {
	// MinVertices stops coarsening once a level has at most this many
	// vertices. 0 defaults to max(1024, 8·K): at least eight coarse
	// vertices per part, so the coarsest solve has room to balance.
	MinVertices int
	// MaxLevels caps the hierarchy depth. 0 defaults to 24.
	MaxLevels int
	// ColdOracles disables the cross-level warm-start oracle: per-level
	// refines then cold-start their default BFS prefix order from the
	// smallest vertex id, as the path did before the splitter.Warm wrapper
	// existed (the pre-warm coloring is recoverable by setting this). The
	// default (false) seeds each level's default oracle from the projected
	// coarse cut (DESIGN.md §14). Irrelevant when the caller supplies
	// Splitter/SplitterFactory — supplied oracles are always used as-is.
	ColdOracles bool
}

// resolve applies the documented defaults for a K-part run.
func (m Multilevel) resolve(k int) Multilevel {
	if m.MinVertices <= 0 {
		m.MinVertices = 1024
		if 8*k > m.MinVertices {
			m.MinVertices = 8 * k
		}
	}
	if m.MaxLevels <= 0 {
		m.MaxLevels = 24
	}
	return m
}

// CoarsenOptions resolves the hierarchy-construction knobs a K-part run
// uses for g — the single definition of the in-run Build below, exported
// so benchmarks can time that Build on its own. The weight cap is half a
// part's share: the Definition 1 window is ±(1−1/k)·‖w‖∞, so letting
// ‖w‖∞ grow past the average class weight would make the coarsest window
// vacuous.
func (m Multilevel) CoarsenOptions(g *graph.Graph, k int) coarsen.Options {
	r := m.resolve(k)
	return coarsen.Options{
		MinVertices: r.MinVertices,
		MaxLevels:   r.MaxLevels,
		MaxWeight:   g.TotalWeight() / float64(2*k),
	}
}

// defaultSplitterFactory mints the oracle for hierarchy levels when the
// caller provides no Options.SplitterFactory: the FM-refined BFS prefix
// splitter, the same default a direct run gets, with the gain scan fanned
// across the run's worker-pool bound.
func defaultSplitterFactory(par int) func(g *graph.Graph) splitter.Splitter {
	return func(g *graph.Graph) splitter.Splitter {
		rf := splitter.NewRefined(g, splitter.NewBFS(g))
		rf.Par = par
		return rf
	}
}

// warmRefined mints the warm-started per-level oracle: the FM-refined
// prefix splitter whose order is seeded from the projected coarse cut
// (prior), falling back to the cold BFS order when a call's W has no
// prior frontier. Returns the Warm wrapper too, for WarmHits accounting.
func warmRefined(g *graph.Graph, prior []int32, par int) (splitter.Splitter, *splitter.Warm) {
	warm := splitter.NewWarm(g, splitter.NewBFS(g), prior)
	rf := splitter.NewRefined(g, warm)
	rf.Par = par
	return rf, warm
}

// multilevelStage is the driver; see the file comment.
type multilevelStage struct{}

// MultilevelStage returns the multilevel driver stage. It must be the
// producing head of its pipeline (DecomposePipeline assembles it when
// Options.Multilevel is set) and requires Options.Multilevel non-nil.
func MultilevelStage() Stage { return multilevelStage{} }

func (multilevelStage) Name() StageName { return StageMultilevel }

func (multilevelStage) Run(c *ctx, _ []int32) ([]int32, error) {
	if c.opt.Multilevel == nil {
		return nil, fmt.Errorf("core: MultilevelStage requires Options.Multilevel")
	}
	ml := c.opt.Multilevel.resolve(c.opt.K)
	factory := c.opt.SplitterFactory
	// Warm-start seeding applies only to oracles this driver mints itself:
	// a caller-supplied factory (or, at the finest level, a caller-supplied
	// run splitter — e.g. the exact grid oracle) is always used as-is.
	warmable := factory == nil && !ml.ColdOracles
	if factory == nil {
		factory = defaultSplitterFactory(c.par)
	}

	// Hierarchy construction gets its own instrumented window inside the
	// driver's StageMultilevel bracket; the per-level solves below run as
	// inner pipelines with their own stage events and diagnostics,
	// absorbed into this run's.
	var hier *coarsen.Hierarchy
	var err error
	c.stageWindow(StageCoarsen, func() {
		copt := ml.CoarsenOptions(c.g, c.opt.K)
		copt.Parallelism = c.par
		hier, err = coarsen.Build(c.run, c.g, copt)
	})
	if err != nil {
		return nil, err
	}
	if c.diag != nil {
		c.diag.Levels = len(hier.Levels)
	}
	fineAt := func(i int) *graph.Graph {
		if i == 0 {
			return hier.Fine
		}
		return hier.Levels[i-1].Coarse
	}

	// Overlap: while level i refines, the next finer level's splitting-cost
	// prelude (the pow-heavy π sweep every inner run pays at context
	// construction) computes concurrently. π depends only on the static
	// level graph — never on the evolving coloring — and is bit-identical
	// wherever it is computed, so the overlap changes wall time only. The
	// deferred drain keeps the pipeline contract that no goroutine outlives
	// the entry point's return, on every path including error unwinds.
	var piCh chan []float64
	prefetch := func(g *graph.Graph) chan []float64 {
		ch := make(chan []float64, 1)
		//repro:nondeterministic-ok single buffered send, drained before the level (or any error path) consumes it; π is bit-identical wherever computed — DESIGN.md §14
		go func() { ch <- measure.SplittingCostPar(g, c.p, 1, 1) }()
		return ch
	}
	defer func() {
		if piCh != nil {
			<-piCh
		}
	}()

	// Per-level options: the inner runs inherit the caller's policy but
	// never recurse into the multilevel path, and each graph of the
	// hierarchy gets its own factory-built oracle. The finest level reuses
	// the run's resolved splitter — the one bound to the input graph
	// (possibly the caller's, e.g. an exact grid oracle) — unless that
	// splitter was minted by default, in which case it warm-starts like
	// every other level.
	inner := c.opt
	inner.Multilevel = nil

	copt := inner
	cg := hier.Coarsest()
	if cg != c.g {
		copt.Splitter = factory(cg)
	}
	if c.par > 1 && len(hier.Levels) > 0 && fineAt(len(hier.Levels)-1) != c.g {
		piCh = prefetch(fineAt(len(hier.Levels) - 1))
	}
	res, err := Decompose(c.run, cg, copt)
	if err != nil {
		return nil, err
	}
	if c.diag != nil {
		c.diag.absorb(res.Diag)
		c.diag.LevelProfile = append(c.diag.LevelProfile, LevelDiag{
			Level: len(hier.Levels), Vertices: cg.N(), Edges: cg.M(),
			SplitterCalls: res.Diag.SplitterCalls, Duration: res.Diag.Total,
		})
	}
	chi := res.Coloring

	// Cancellation unwinds through the inner pipeline itself: it threads
	// c.run and surfaces ctx.Err() as its error, which the check below
	// turns into an immediate return, so each level is one
	// checkpoint-granularity unit.
	//repro:checkpoint-ok the inner pipeline polls c.run internally and its error return exits the loop — DESIGN.md §8
	for i := len(hier.Levels) - 1; i >= 0; i-- {
		chi = hier.Levels[i].Project(chi)
		fg := fineAt(i)
		var pi []float64
		if piCh != nil {
			pi = <-piCh
			piCh = nil
		}
		if pi == nil && fg == c.g {
			// The run context already paid the finest graph's π sweep at
			// construction; reuse it instead of recomputing (or
			// prefetching — the guards above and below never spawn a
			// prefetch for c.g). Bit-identical by the SplittingCostPar
			// contract, so the refine is unchanged.
			pi = c.pi
		}
		if i > 0 && c.par > 1 && fineAt(i-1) != c.g {
			piCh = prefetch(fineAt(i - 1))
		}
		lopt := inner
		var warm *splitter.Warm
		if warmable && (fg != c.g || c.spDefault) {
			lopt.Splitter, warm = warmRefined(fg, chi, c.par)
		} else if fg != c.g {
			lopt.Splitter = factory(fg)
		}
		res, err = RefinePipeline(nil).withPi(pi).Run(c.run, fg, lopt, chi)
		if err != nil {
			return nil, err
		}
		if c.diag != nil {
			c.diag.absorb(res.Diag)
			ld := LevelDiag{
				Level: i, Vertices: fg.N(), Edges: fg.M(),
				SplitterCalls: res.Diag.SplitterCalls, Duration: res.Diag.Total,
			}
			if warm != nil {
				ld.WarmHits = warm.Hits()
			}
			c.diag.LevelProfile = append(c.diag.LevelProfile, ld)
		}
		chi = res.Coloring
	}
	return chi, nil
}
