package experiments

import (
	"fmt"
	"math"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// CROptions configures the empirical competitive-ratio study.
type CROptions struct {
	// Instances is the number of random problem instances (inputs G).
	Instances int
	// Orders is the number of arrival orders / algorithm seeds averaged
	// per instance — the expectation in CR_RO (Definition 2.8).
	Orders int
	// Requests/Workers per platform pair in each instance.
	Requests, Workers int
	// Radius is the service radius.
	Radius float64
	// Seed roots all randomness.
	Seed int64
	// Runner fans the study's instances across a worker pool; nil uses
	// GOMAXPROCS.
	Runner *Runner
}

func (o *CROptions) withDefaults() CROptions {
	out := *o
	if out.Instances <= 0 {
		out.Instances = 20
	}
	if out.Orders <= 0 {
		out.Orders = 10
	}
	if out.Requests <= 0 {
		out.Requests = 120
	}
	if out.Workers <= 0 {
		out.Workers = 40
	}
	if out.Radius <= 0 {
		out.Radius = 1.5
	}
	out.Runner = out.Runner.orDefault()
	return out
}

// CRResult reports the empirical random-order competitive ratios.
type CRResult struct {
	Opts CROptions
	// MinRatio[alg] is the minimum over instances of the mean (over
	// orders) online-to-OPT revenue ratio — the empirical CR_RO.
	MinRatio map[string]float64
	// MeanRatio[alg] averages the per-instance means, a smoother view.
	MeanRatio map[string]float64
}

// Table renders the study.
func (r *CRResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Empirical CR_RO over %d instances x %d orders (|R|=%d, |W|=%d)",
			r.Opts.Instances, r.Opts.Orders, r.Opts.Requests, r.Opts.Workers),
		"Method", "min E[ALG]/OPT", "mean E[ALG]/OPT")
	for _, alg := range []string{platform.AlgTOTA, platform.AlgGreedyRT, platform.AlgDemCOM, platform.AlgRamCOM} {
		tb.Add(alg, stats.FormatFloat(r.MinRatio[alg], 3), stats.FormatFloat(r.MeanRatio[alg], 3))
	}
	return tb
}

// RunCompetitiveRatio measures empirical random-order competitive ratios
// (Definition 2.8) on small random instances where the exact offline
// optimum is cheap: for each instance, each algorithm's expected revenue
// over several arrival orders is divided by the OFF optimum; the minimum
// over instances estimates CR_RO. The paper proves RamCOM reaches 1/(8e)
// ~ 0.046 in the worst case and that DemCOM matches greedy TOTA; here
// typical instances land far above those floors (as the paper's Section
// II-B notes, the worst case appears with probability ~1/k!).
func RunCompetitiveRatio(opts CROptions) (*CRResult, error) {
	o := opts.withDefaults()
	res := &CRResult{
		Opts:      o,
		MinRatio:  map[string]float64{},
		MeanRatio: map[string]float64{},
	}
	algs := []string{platform.AlgTOTA, platform.AlgGreedyRT, platform.AlgDemCOM, platform.AlgRamCOM}
	for _, a := range algs {
		res.MinRatio[a] = math.Inf(1)
	}

	// Instances are fully independent — each one generates its own base
	// input, its own arrival orders and its own OPT solves — so the
	// runner fans them out whole; per-instance ratios come back in
	// instance order and fold into min/mean deterministically.
	// degenerate instances (no request servable in any order) return nil.
	instRatios, err := runAll(o.Runner, o.Instances, func(inst int) (map[string]float64, error) {
		cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
		if err != nil {
			return nil, err
		}
		genSeed := o.Seed + int64(inst)*104729
		base, err := workload.Generate(cfg, genSeed)
		if err != nil {
			return nil, err
		}
		// One arrival order per sample of the random order model. The
		// offline optimum honours the time constraint, so OPT is
		// recomputed per order; the per-order ratio ALG/OPT is averaged.
		type orderCase struct {
			stream *core.Stream
			opt    float64
		}
		var orders []orderCase
		for ord := 0; ord < o.Orders; ord++ {
			shuffled, err := workload.ReorderUniform(base, genSeed+int64(ord)+1)
			if err != nil {
				return nil, err
			}
			off, err := platform.Offline(shuffled)
			if err != nil {
				return nil, err
			}
			if off.TotalWeight <= 0 {
				continue
			}
			orders = append(orders, orderCase{stream: shuffled, opt: off.TotalWeight})
		}
		if len(orders) == 0 {
			return nil, nil // degenerate instance
		}
		ratios := make(map[string]float64, len(algs))
		for _, a := range algs {
			spec := platform.Spec{Algorithm: a, MaxValue: cfg.MaxValue(), Faults: o.Runner.FaultPlan}
			sum := 0.0
			for ord, oc := range orders {
				spec.Seed = genSeed + int64(ord)
				factory, runCfg, err := spec.Lower()
				if err != nil {
					return nil, err
				}
				o.Runner.observe(&runCfg, "cr/"+a)
				run, err := platform.Run(oc.stream, factory, runCfg)
				if err != nil {
					return nil, err
				}
				sum += run.TotalRevenue() / oc.opt
			}
			ratios[a] = sum / float64(len(orders))
		}
		return ratios, nil
	})
	if err != nil {
		return nil, err
	}
	counted := 0
	for _, ratios := range instRatios {
		if ratios == nil {
			continue
		}
		counted++
		for _, a := range algs {
			if ratios[a] < res.MinRatio[a] {
				res.MinRatio[a] = ratios[a]
			}
			res.MeanRatio[a] += ratios[a]
		}
	}
	if counted == 0 {
		return nil, fmt.Errorf("experiments: every CR instance was degenerate")
	}
	for _, a := range algs {
		res.MeanRatio[a] /= float64(counted)
	}
	return res, nil
}
