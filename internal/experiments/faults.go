package experiments

import (
	"fmt"
	"time"

	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// FaultSweepOptions configures the fault-tolerance study: the same
// workload run under increasing cooperation-fault intensity, with the
// zero-fault row as the baseline every other row is compared against.
type FaultSweepOptions struct {
	// Grid shapes the two-platform synthetic workload (defaults
	// 2000/400/1.0, 3 repeats). The runner's own FaultPlan is ignored —
	// this study builds one plan per rate.
	Grid
	// Rates are the fault intensities to sweep, each in [0, 1]; at rate
	// x every probe is dropped with probability x, suffers a latency
	// spike with probability x, and every claim fails transiently with
	// probability x/2. 0 must be present to anchor the baseline and is
	// prepended when missing. Default {0, 0.1, 0.25, 0.5, 1}.
	Rates []float64
}

func (o *FaultSweepOptions) withDefaults() FaultSweepOptions {
	out := *o
	out.Grid = out.Grid.withDefaults(2000, 400, 3)
	if len(out.Rates) == 0 {
		out.Rates = []float64{0, 0.1, 0.25, 0.5, 1}
	}
	hasZero := false
	for _, r := range out.Rates {
		if r == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		out.Rates = append([]float64{0}, out.Rates...)
	}
	return out
}

// planForRate builds the fault plan for one sweep intensity. Rate 0
// returns nil: the baseline runs the fault-free engine, not an
// empty-plan engine, so the comparison covers the whole injection
// layer.
func planForRate(rate float64) *fault.Plan {
	if rate <= 0 {
		return nil
	}
	return &fault.Plan{
		DropRate:       rate,
		LatencyRate:    rate,
		LatencyMin:     time.Millisecond,
		LatencyMax:     12 * time.Millisecond,
		ClaimErrorRate: rate / 2,
	}
}

// FaultSweepRow is one (rate, algorithm) measurement, averaged over
// repeats.
type FaultSweepRow struct {
	Rate      float64
	Algorithm string
	Revenue   float64
	Served    float64
	CoR       float64 // cooperative requests served
	// RevenueRatio and ServedRatio compare against the same algorithm's
	// zero-fault baseline row (1.0 = no degradation).
	RevenueRatio float64
	ServedRatio  float64
	// Retries / Timeouts / BreakerOpened aggregate the resilience
	// counters across the row's runs.
	Retries       float64
	Timeouts      float64
	BreakerOpened float64
}

// FaultSweepResult is the full study.
type FaultSweepResult struct {
	Opts FaultSweepOptions
	Rows []FaultSweepRow
}

// Row fetches one measurement.
func (r *FaultSweepResult) Row(rate float64, alg string) (FaultSweepRow, bool) {
	return find(r.Rows, func(row FaultSweepRow) bool { return row.Rate == rate && row.Algorithm == alg })
}

// Table renders the study.
func (r *FaultSweepResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Fault tolerance (|R|=%d, |W|=%d, rad=%.1f, %d repeats; rate x: drop=x, latency=x, claimerr=x/2)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Repeats),
		"Fault rate", "Algorithm", "Revenue", "Rev vs 0", "Served", "Srv vs 0", "|CoR|", "Retries", "Timeouts", "Brk opened")
	for _, row := range r.Rows {
		tb.Add(stats.FormatFloat(row.Rate, 2), row.Algorithm,
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.RevenueRatio, 3),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.ServedRatio, 3),
			stats.FormatFloat(row.CoR, 1),
			stats.FormatFloat(row.Retries, 1),
			stats.FormatFloat(row.Timeouts, 1),
			stats.FormatFloat(row.BreakerOpened, 1))
	}
	return tb
}

// RunFaultSweep measures how gracefully the COM algorithms degrade as
// the cooperation channel gets flakier: dropped and slow probes starve
// the cooperative path, so revenue should slide toward the inner-only
// (TOTA-like) level rather than collapse — the circuit breakers keep
// dark partners from stalling matching. TOTA itself never touches the
// hub and rides along as the fault-immune control.
func RunFaultSweep(opts FaultSweepOptions) (*FaultSweepResult, error) {
	o := opts.withDefaults()
	res := &FaultSweepResult{Opts: o}
	cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, rate := range o.Rates {
		for _, alg := range onlineAlgos {
			cells = append(cells, cell{label: fmt.Sprintf("faults=%g/%s", rate, alg), workload: cfg, spec: platform.Spec{Algorithm: alg}})
			res.Rows = append(res.Rows, FaultSweepRow{Rate: rate, Algorithm: alg})
		}
	}

	type faultUnit struct {
		run      *platform.Result
		counters metrics.Counters
	}
	units, err := runGrid(o.plan(3371), cells, func(ci int, u unit) (faultUnit, error) {
		u.cfg.Faults = planForRate(res.Rows[ci].Rate)
		// The unit run counts into a collector of its own, so its
		// resilience counters can be attributed to its row, and is then
		// folded into the runner's shared collector (if any), which
		// would otherwise never see this study.
		shared, own := u.cfg.Metrics, metrics.New()
		u.cfg.Metrics = own
		run, err := u.simulate()
		shared.Merge(own)
		return faultUnit{run, own.Snapshot().Counters}, err
	})
	if err != nil {
		return nil, err
	}

	base := map[string]FaultSweepRow{}
	for ci, us := range units {
		row := &res.Rows[ci]
		row.Revenue = mean(us, func(u faultUnit) float64 { return u.run.TotalRevenue() })
		row.Served = mean(us, func(u faultUnit) float64 { return float64(u.run.TotalServed()) })
		row.CoR = mean(us, func(u faultUnit) float64 { return float64(u.run.CooperativeServed()) })
		row.Retries = mean(us, func(u faultUnit) float64 { return float64(u.counters.ProbeRetries) })
		row.Timeouts = mean(us, func(u faultUnit) float64 { return float64(u.counters.ProbeTimeouts) })
		row.BreakerOpened = mean(us, func(u faultUnit) float64 { return float64(u.counters.BreakerOpened) })
		if row.Rate == 0 {
			base[row.Algorithm] = *row
		}
		if b, ok := base[row.Algorithm]; ok && b.Revenue > 0 {
			row.RevenueRatio = row.Revenue / b.Revenue
		}
		if b, ok := base[row.Algorithm]; ok && b.Served > 0 {
			row.ServedRatio = row.Served / b.Served
		}
	}
	return res, nil
}
