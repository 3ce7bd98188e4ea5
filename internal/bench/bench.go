// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§4) on the synthetic stand-in graphs.
// Each experiment prints the same rows/series the paper reports; see
// DESIGN.md §2 for the experiment index.
//
// Because the stand-ins are 10-100x smaller than the paper's inputs (which
// do not fit this environment), the locality thresholds are scaled so each
// diffusion touches a comparable *fraction* of its graph: the default
// epsilons here are one to two orders of magnitude larger than the paper's,
// and rand-HK-PR runs 10^6 walks instead of 10^8. Every experiment prints
// its parameters, so the scaling is always visible in the output.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
)

// Config configures a harness run.
type Config struct {
	// Scale selects stand-in sizes (gen.Small/Medium/Large).
	Scale gen.Scale
	// Procs is the maximum worker count Tp experiments use (0 = all cores).
	Procs int
	// Out receives the formatted tables.
	Out io.Writer
	// Reps is the number of timed repetitions per measurement; the minimum
	// is reported. Default 3.
	Reps int
}

func (c *Config) defaults() {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
}

// Params bundles the per-algorithm parameters used by the Table 3 style
// experiments, pre-scaled per Config.Scale.
type Params struct {
	NibbleT   int
	NibbleEps float64
	PRAlpha   float64
	PREps     float64
	HKt       float64
	HKN       int
	HKEps     float64
	RandT     float64
	RandK     int
	RandWalks int
}

// paramsFor returns the experiment parameters for a scale. The paper's
// settings (Table 3 caption) are T=20, eps=1e-8 (Nibble); alpha=0.01,
// eps=1e-7 (PR-Nibble); t=10, N=20, eps=1e-7 (HK-PR); t=10, K=10, N=1e8
// (rand-HK-PR); thresholds are loosened here in proportion to the smaller
// stand-ins (see the package comment).
func paramsFor(scale gen.Scale) Params {
	p := Params{
		NibbleT: 20, NibbleEps: 1e-7,
		PRAlpha: 0.01, PREps: 1e-6,
		HKt: 10, HKN: 20, HKEps: 1e-6,
		RandT: 10, RandK: 10, RandWalks: 1_000_000,
	}
	switch scale {
	case gen.Small:
		p.NibbleEps, p.PREps, p.HKEps = 1e-6, 1e-5, 1e-5
		p.RandWalks = 100_000
	case gen.Large:
		p.NibbleEps, p.PREps, p.HKEps = 1e-8, 1e-7, 1e-7
		p.RandWalks = 10_000_000
	}
	return p
}

// Workspace caches generated stand-in graphs and their seed vertices across
// experiments.
type Workspace struct {
	cfg    Config
	params Params
	graphs map[string]*graph.CSR
	seeds  map[string]uint32
}

// NewWorkspace returns an empty workspace for cfg.
func NewWorkspace(cfg Config) *Workspace {
	cfg.defaults()
	return &Workspace{
		cfg:    cfg,
		params: paramsFor(cfg.Scale),
		graphs: map[string]*graph.CSR{},
		seeds:  map[string]uint32{},
	}
}

// Params exposes the scaled experiment parameters.
func (w *Workspace) Params() Params { return w.params }

// Graph generates (and caches) the named Table 2 stand-in.
func (w *Workspace) Graph(name string) (*graph.CSR, error) {
	if g, ok := w.graphs[name]; ok {
		return g, nil
	}
	g, err := gen.StandIn(0, name, w.cfg.Scale)
	if err != nil {
		return nil, err
	}
	w.graphs[name] = g
	return g, nil
}

// Seed returns the experiment seed vertex for a graph: a representative of
// the largest component, as in the paper ("a single arbitrary vertex in the
// largest component").
func (w *Workspace) Seed(name string) (uint32, error) {
	if s, ok := w.seeds[name]; ok {
		return s, nil
	}
	g, err := w.Graph(name)
	if err != nil {
		return 0, err
	}
	rep, _ := g.LargestComponent()
	w.seeds[name] = rep
	return rep, nil
}

// timeIt runs fn cfg.Reps times and returns the minimum wall time.
func (w *Workspace) timeIt(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < w.cfg.Reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func (w *Workspace) printf(format string, args ...any) {
	fmt.Fprintf(w.cfg.Out, format, args...)
}

// header prints an experiment banner with the machine context.
func (w *Workspace) header(id, title string) {
	w.printf("\n=== %s: %s ===\n", id, title)
	w.printf("scale=%s procs=%d cores=%d reps=%d\n",
		w.cfg.Scale, w.cfg.Procs, runtime.GOMAXPROCS(0), w.cfg.Reps)
}

// seconds formats a duration the way the paper's tables do.
func seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// experiments lists every experiment ID with its runner, in run order.
var experiments = []struct {
	id  string
	run func(*Workspace) error
}{
	{"table1", (*Workspace).Table1},
	{"table2", (*Workspace).Table2},
	{"table3", (*Workspace).Table3},
	{"fig4", (*Workspace).Fig4},
	{"fig8", (*Workspace).Fig8},
	{"fig9", (*Workspace).Fig9},
	{"fig10", (*Workspace).Fig10},
	{"fig11", (*Workspace).Fig11},
	{"fig12", (*Workspace).Fig12},
	{"A1", (*Workspace).AblationRandHKAggregation},
	{"A2", (*Workspace).AblationSweepStrategy},
	{"A3", (*Workspace).AblationBetaFraction},
	{"A4", (*Workspace).AblationFrontierMode},
}

// ExperimentIDs lists the available experiment IDs in run order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by ID, or all of them for id == "all".
func (w *Workspace) Run(id string) error {
	if id == "all" {
		for _, e := range experiments {
			if err := e.run(w); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
		}
		return nil
	}
	for _, e := range experiments {
		if e.id == id {
			return e.run(w)
		}
	}
	known := ExperimentIDs()
	sort.Strings(known)
	return fmt.Errorf("bench: unknown experiment %q (known: %v, all)", id, known)
}

// procGrid returns the core counts for speedup experiments: powers of two
// up to (and including) cfg.Procs.
func (w *Workspace) procGrid() []int {
	var grid []int
	for p := 1; p < w.cfg.Procs; p *= 2 {
		grid = append(grid, p)
	}
	grid = append(grid, w.cfg.Procs)
	return grid
}
