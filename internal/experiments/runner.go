package experiments

import (
	"fmt"

	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/parallel"
	"crossmatch/internal/platform"
	"crossmatch/internal/trace"
)

// Runner is the concurrent experiment engine: every harness in this
// package decomposes its evaluation into independent unit runs — one
// (algorithm × seed × scale/variant) simulation each — and fans them
// across a bounded worker pool.
//
// Determinism guarantee: each unit run derives all of its randomness
// from its own submission index (its seed), every input stream is either
// read-only-shared or regenerated per run from a (config, seed) pair,
// and results are aggregated in submission order, never completion
// order. Harness output is therefore bit-for-bit identical for any
// Parallelism, including 1 — except the measurement columns (response
// time, memory), which report real wall-clock and heap and so vary
// run-to-run on any schedule. One module keeps that guarantee for every
// grid experiment: see runGrid.
type Runner struct {
	// Parallelism caps concurrent unit runs; <= 0 means GOMAXPROCS(0).
	Parallelism int
	// Metrics, when non-nil, collects the matching-funnel counters and
	// decision-latency distributions of every unit run (see
	// internal/metrics); it also switches on per-run pprof labels.
	Metrics *metrics.Collector
	// FaultPlan, when non-nil, injects the same cooperation fault plan
	// into every unit run (platform.Spec.Faults). Fault randomness is
	// seeded per run, so the determinism guarantee holds for faulted
	// runs too. Nil (the default) keeps every unit run bit-identical to
	// the fault-free engine.
	FaultPlan *fault.Plan
	// Trace, when non-nil, records per-request decision spans of every
	// unit run into the shared tracer's bounded per-platform rings
	// (platform.Config.Trace). Tracing never touches matcher randomness,
	// so the determinism guarantee is unaffected.
	Trace *trace.Tracer
}

// orDefault normalises the "nil uses GOMAXPROCS" convention of every
// options struct: the entry points call it once, so nothing below them
// guards against a nil runner.
func (r *Runner) orDefault() *Runner {
	if r == nil {
		return &Runner{}
	}
	return r
}

// observe threads the runner's observers into one unit run's Config:
// the tracer, the collector and, when metrics are on, a pprof label
// naming the run.
func (r *Runner) observe(cfg *platform.Config, label string) {
	cfg.Trace = r.Trace
	if r.Metrics != nil {
		cfg.Metrics = r.Metrics
		cfg.ProfileLabel = fmt.Sprintf("%s/seed=%d", label, cfg.Seed)
	}
}

// runAll fans n independent unit runs across the runner's pool and
// returns their results in submission order. job(i) must derive all of
// its randomness from i alone. It is the tree's one fan-out: the grid
// kernel and the competitive-ratio study (which fans whole instances)
// both go through it.
func runAll[T any](r *Runner, n int, job func(i int) (T, error)) ([]T, error) {
	return parallel.Map(r.Parallelism, n, job)
}
