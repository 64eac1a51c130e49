package core

import (
	"context"
	"errors"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRefineStrictPriorSkipsToPolish pins the zero-oracle-calls resume:
// with a still-strict prior, the rebalancing stages must not run.
func TestRefineStrictPriorSkipsToPolish(t *testing.T) {
	g := workload.ClimateMesh(20, 20, 3, 9)
	res, err := Decompose(context.Background(), g, Options{K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Refine(context.Background(), g, Options{K: 6, Parallelism: 1}, res.Coloring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Diag.SplitterCalls != 0 {
		t.Fatalf("strict prior paid %d oracle calls, want 0", warm.Diag.SplitterCalls)
	}
}

// eventLog records a run's Observer stream as space-separated tokens:
// "+name" and "-name" for stage enter and leave, "round" for a polish
// round. Oracle calls are not recorded. When cancelAfter is set, the
// StageLeave of that stage cancels the run.
type eventLog struct {
	NopObserver
	events      []string
	cancelAfter StageName
	cancel      context.CancelFunc
}

func (l *eventLog) StageEnter(s StageName) { l.events = append(l.events, "+"+string(s)) }

func (l *eventLog) StageLeave(s StageName, _ time.Duration) {
	l.events = append(l.events, "-"+string(s))
	if s == l.cancelAfter {
		l.cancel()
	}
}

func (l *eventLog) PolishRound(int, bool) { l.events = append(l.events, "round") }

// TestObserverEventStreams pins the stage sequence every kind of run
// emits: which stages run, in which order, and where a cancellation
// raised inside a StageLeave callback stops the run.
func TestObserverEventStreams(t *testing.T) {
	g := workload.ClimateMesh(24, 24, 3, 7)
	base := Options{K: 8, Parallelism: 1}
	strict, err := Decompose(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	w2 := slices.Clone(g.Weight)
	for v := range w2 {
		if v%3 == 0 {
			w2[v] *= 4
		}
	}
	g2 := g.WithWeights(w2)

	const (
		head     = `^\+multibalance -multibalance `
		toStrict = `\+almoststrict -almoststrict \+strictpack -strictpack `
		polish   = `\+polish( round)+ -polish$`
	)
	ml := &Multilevel{MinVertices: 128}
	cases := []struct {
		name        string
		opt         Options
		prior       []int32 // nil runs Decompose
		dirty       []int32
		drifted     bool // run on the drifted weights
		cancelAfter StageName
		want        string // regexp over the joined event tokens
	}{
		{name: "decompose", want: head + toStrict + polish},
		{name: "refine strict prior", prior: strict.Coloring, want: `^` + polish},
		{name: "refine broken prior", prior: strict.Coloring, drifted: true, want: `^` + toStrict + polish},
		{name: "refine empty dirty set", prior: strict.Coloring, dirty: []int32{}, want: `^\+polish round -polish$`},
		{name: "skip shrink", opt: Options{SkipShrink: true}, want: head + toStrict + polish},
		{name: "skip polish", opt: Options{SkipPolish: true}, want: head + toStrict + `\+polish -polish$`},
		{name: "multilevel", opt: Options{Multilevel: ml}, want: `^\+multilevel \+coarsen -coarsen .* -multilevel$`},
		{name: "cancel after multibalance", cancelAfter: StageMultiBalance, want: `^\+multibalance -multibalance$`},
		{name: "cancel after almoststrict", cancelAfter: StageAlmostStrict, want: head + `\+almoststrict -almoststrict$`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, cancel := context.WithCancel(context.Background())
			defer cancel()
			log := &eventLog{cancelAfter: tc.cancelAfter, cancel: cancel}
			opt := tc.opt
			opt.K, opt.Parallelism, opt.Observer = base.K, base.Parallelism, log
			on := g
			if tc.drifted {
				on = g2
			}
			var res Result
			var err error
			if tc.prior == nil {
				res, err = Decompose(run, on, opt)
			} else {
				res, err = Refine(run, on, opt, tc.prior, tc.dirty)
			}
			if tc.cancelAfter != "" {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(log.events, " ")
			if !regexp.MustCompile(tc.want).MatchString(got) {
				t.Fatalf("events %q do not match %q", got, tc.want)
			}
			if tc.opt.Multilevel == nil {
				return
			}
			if res.Diag.Levels == 0 {
				t.Fatal("multilevel run built no level")
			}
			count := func(tok string) int { return strings.Count(" "+got+" ", " "+tok+" ") }
			if n := count("+multibalance"); n != 1 || count("-multibalance") != 1 {
				t.Fatalf("%d multibalance pairs, want 1", n)
			}
			if n := count("+polish"); n != res.Diag.Levels+1 || count("-polish") != n {
				t.Fatalf("%d polish pairs, want Levels+1 = %d", n, res.Diag.Levels+1)
			}
		})
	}
}

// TestMultilevelRejectsMeasures pins the documented incompatibility.
func TestMultilevelRejectsMeasures(t *testing.T) {
	g := workload.ClimateMesh(16, 16, 3, 1)
	extra := make([]float64, g.N())
	for v := range extra {
		extra[v] = float64(v % 3)
	}
	_, err := Decompose(context.Background(), g, Options{
		K: 4, Multilevel: &Multilevel{}, Measures: [][]float64{extra},
	})
	if err == nil {
		t.Fatal("Multilevel+Measures accepted")
	}
}

// TestMultilevelDiagnostics checks the multilevel accounting: levels and
// coarsen time recorded, one LevelProfile entry per solve from the
// coarsest down to the input graph, and the per-level oracle calls
// summing to the run's total.
func TestMultilevelDiagnostics(t *testing.T) {
	g := workload.ClimateMesh(48, 48, 4, 2)
	ml, err := Decompose(context.Background(), g, Options{
		K: 8, Parallelism: 1, Multilevel: &Multilevel{MinVertices: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := ml.Diag
	if d.Levels == 0 {
		t.Fatal("no coarsening levels recorded")
	}
	if d.Coarsen <= 0 {
		t.Fatal("no coarsening time recorded")
	}
	if d.SplitterCalls == 0 {
		t.Fatal("multilevel run recorded no oracle calls at all")
	}
	if len(d.LevelProfile) != d.Levels+1 {
		t.Fatalf("%d LevelProfile entries, want Levels+1 = %d", len(d.LevelProfile), d.Levels+1)
	}
	if last := d.LevelProfile[d.Levels]; last.Level != 0 || last.Vertices != g.N() {
		t.Fatalf("last LevelProfile entry is level %d with %d vertices, want level 0 with %d",
			last.Level, last.Vertices, g.N())
	}
	var calls int64
	for _, ld := range d.LevelProfile {
		calls += ld.SplitterCalls
	}
	if calls != d.SplitterCalls {
		t.Fatalf("per-level oracle calls sum to %d, run total %d", calls, d.SplitterCalls)
	}
	if v := Verify(g, Options{K: 8}, ml, 20); !v.OK() {
		t.Fatalf("multilevel result failed verification: %v", v.Errors)
	}
}

// TestMultilevelDeterministic: same options ⇒ byte-identical multilevel
// coloring, at every parallelism level (the core determinism contract
// extends through coarsening, which is single-threaded and pure).
func TestMultilevelDeterministic(t *testing.T) {
	g := workload.ClimateMesh(40, 40, 4, 11)
	opt := Options{K: 8, Multilevel: &Multilevel{MinVertices: 128}}
	var first []int32
	for _, par := range []int{1, 1, 0, 4} {
		o := opt
		o.Parallelism = par
		res, err := Decompose(context.Background(), g, o)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Coloring
			continue
		}
		if !slices.Equal(first, res.Coloring) {
			t.Fatalf("multilevel coloring differs at Parallelism=%d", par)
		}
	}
}
