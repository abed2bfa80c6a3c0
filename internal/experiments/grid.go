package experiments

import (
	"fmt"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/workload"
)

// This file is the grid kernel: the one place that knows what a unit
// run is. Every grid experiment — table, sweep, ablation, roadnet,
// valuedist, platforms, variance, faults, window — declares cells (a
// case crossed with an algorithm or variant) and how to read a unit run;
// the kernel owns everything else: which (cell, repeat) pairs exist and
// in what order, each pair's seed, where its stream comes from, its
// profile label, how the cell's platform.Spec becomes a matcher and a
// platform.Config, the fan-out, and handing the units back grouped per
// cell in submission order. That ordering is what makes every harness
// bit-identical on any pool size.

// Grid is the synthetic workload and repeat count the grid experiments
// share. Zero fields take the running experiment's defaults.
type Grid struct {
	// Requests/Workers are the city-wide totals, Radius the service
	// radius in km (default 1.0).
	Requests, Workers int
	Radius            float64
	// Repeats averages each cell over this many seeds.
	Repeats int
	// Seed roots all randomness.
	Seed int64
	// Runner fans the unit runs across a worker pool; nil uses
	// GOMAXPROCS.
	Runner *Runner
}

func (g Grid) withDefaults(requests, workers, repeats int) Grid {
	if g.Requests <= 0 {
		g.Requests = requests
	}
	if g.Workers <= 0 {
		g.Workers = workers
	}
	if g.Radius <= 0 {
		g.Radius = 1.0
	}
	if g.Repeats <= 0 {
		g.Repeats = repeats
	}
	return g
}

// plan seeds the grid's repeats at the experiment's stride.
func (g Grid) plan(stride int64) plan {
	return plan{runner: g.Runner, seed: g.Seed, stride: stride, repeats: g.Repeats}
}

// onlineAlgos are the three algorithms of the paper's evaluation, in
// its column order.
var onlineAlgos = []string{platform.AlgTOTA, platform.AlgDemCOM, platform.AlgRamCOM}

// plan fixes how cells become unit runs: repeat rep of every cell runs
// under seed + rep*stride. The stride is a per-experiment constant —
// changing one moves every published number of that experiment.
type plan struct {
	runner  *Runner
	seed    int64
	stride  int64
	repeats int
	// stream, when non-nil, is read by every unit run (a simulation
	// mutates nothing in its stream); otherwise each unit run
	// regenerates its own from (cell.workload, seed).
	stream *core.Stream
}

// cell is one row of an experiment before averaging: a workload and a
// matcher, run plan.repeats times.
type cell struct {
	// label names the cell's unit runs in profiles and errors.
	label string
	// workload supplies max(v_r) for the threshold algorithms and, when
	// the plan shares no stream, the unit runs' streams.
	workload workload.Config
	// spec is the cell's engine configuration; the kernel fills in each
	// unit's seed, the runner's fault plan and, unless the spec has one,
	// the workload's max value. factory overrides the matcher the spec
	// names, for variants a name cannot express. The units of a cell
	// with no algorithm reach measure with a nil factory.
	spec    platform.Spec
	factory platform.MatcherFactory
	// once marks a deterministic cell: one unit run, not plan.repeats.
	once bool
}

// unit is one (cell, repeat) ready to run.
type unit struct {
	stream  *core.Stream
	factory platform.MatcherFactory
	cfg     platform.Config
}

func (u unit) simulate() (*platform.Result, error) {
	return platform.Run(u.stream, u.factory, u.cfg)
}

// unit readies one repeat of a cell: its stream, its matcher and its
// platform.Config.
func (p plan) unit(c cell, seed int64) (unit, error) {
	u := unit{stream: p.stream, factory: c.factory, cfg: platform.Config{Seed: seed}}
	var err error
	if u.stream == nil {
		if u.stream, err = workload.Generate(c.workload, seed); err != nil {
			return u, err
		}
	}
	if sp := c.spec; sp.Algorithm != "" {
		sp.Seed, sp.Faults = seed, p.runner.FaultPlan
		if sp.MaxValue == 0 {
			sp.MaxValue = c.workload.MaxValue()
		}
		var named platform.MatcherFactory
		if named, u.cfg, err = sp.Lower(); err != nil {
			return u, err
		}
		if u.factory == nil {
			u.factory = named
		}
	}
	p.runner.observe(&u.cfg, c.label)
	return u, nil
}

// runGrid runs measure on every (cell, repeat) across the runner's pool
// and returns the measurements grouped per cell, repeats in seed order.
// An error names the cell and seed of the lowest-index failing unit.
func runGrid[U any](p plan, cells []cell, measure func(ci int, u unit) (U, error)) ([][]U, error) {
	if p.repeats <= 0 || len(cells) == 0 {
		return nil, fmt.Errorf("experiments: empty grid (%d cells x %d repeats)", len(cells), p.repeats)
	}
	p.runner = p.runner.orDefault()
	type ref struct{ ci, rep int }
	var refs []ref
	for ci, c := range cells {
		n := p.repeats
		if c.once {
			n = 1
		}
		for rep := 0; rep < n; rep++ {
			refs = append(refs, ref{ci, rep})
		}
	}
	flat, err := runAll(p.runner, len(refs), func(i int) (U, error) {
		ci := refs[i].ci
		seed := p.seed + int64(refs[i].rep)*p.stride
		var out U
		u, err := p.unit(cells[ci], seed)
		if err == nil {
			out, err = measure(ci, u)
		}
		if err != nil {
			return out, fmt.Errorf("%s seed %d: %w", cells[ci].label, seed, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	grouped := make([][]U, len(cells))
	for i, ref := range refs {
		grouped[ref.ci] = append(grouped[ref.ci], flat[i])
	}
	return grouped, nil
}

// simulateGrid is runGrid for experiments whose unit is a plain
// simulation, reduced per cell by platform.Summarize.
func simulateGrid(p plan, cells []cell) ([][]*platform.Result, []platform.EnsembleSummary, error) {
	runs, err := runGrid(p, cells, func(_ int, u unit) (*platform.Result, error) { return u.simulate() })
	if err != nil {
		return nil, nil, err
	}
	sums, err := summarizeCells(runs)
	return runs, sums, err
}

// summarizeCells reduces each cell's runs to their means and spread.
func summarizeCells(runs [][]*platform.Result) ([]platform.EnsembleSummary, error) {
	sums := make([]platform.EnsembleSummary, len(runs))
	for ci, rs := range runs {
		var err error
		if sums[ci], err = platform.Summarize(rs); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// mean averages f over a cell's units in seed order — the same additions
// in the same order as platform.Summarize, for the statistics it does
// not carry.
func mean[U any](units []U, f func(U) float64) float64 {
	sum := 0.0
	for _, u := range units {
		sum += f(u)
	}
	return sum / float64(len(units))
}

// find backs the results' Row accessors: the first row that matches.
func find[R any](rows []R, match func(R) bool) (R, bool) {
	for _, row := range rows {
		if match(row) {
			return row, true
		}
	}
	var none R
	return none, false
}

// RunEnsemble is one cell of the grid on its own, behind `comsim
// -ensemble`: the spec's matcher over one shared stream under n seeds —
// spec.Seed, spec.Seed+7211, … — fanned across GOMAXPROCS workers and
// summarized in seed order. A failing run's error names its seed; a nil
// stream, a spec that does not resolve, or n <= 0 is rejected.
func RunEnsemble(stream *core.Stream, spec platform.Spec, n int) (platform.EnsembleSummary, error) {
	if stream == nil {
		return platform.EnsembleSummary{}, fmt.Errorf("experiments: ensemble needs a stream")
	}
	if _, err := spec.Resolve(); err != nil {
		return platform.EnsembleSummary{}, err
	}
	_, sums, err := simulateGrid(plan{seed: spec.Seed, stride: 7211, repeats: n, stream: stream},
		[]cell{{label: "ensemble", spec: spec}})
	if err != nil {
		return platform.EnsembleSummary{}, err
	}
	return sums[0], nil
}
