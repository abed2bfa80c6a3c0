package experiments

import (
	"fmt"

	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// VarianceRow summarizes one algorithm's revenue spread over seeds.
type VarianceRow struct {
	Algorithm string
	Summary   platform.EnsembleSummary
}

// VarianceResult is the full study.
type VarianceResult struct {
	// Opts.Repeats is the number of seeds measured (default 12).
	Opts Grid
	Rows []VarianceRow
}

// Table renders the study.
func (r *VarianceResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Seed variance over %d seeds (|R|=%d, |W|=%d): how many repeats do the randomized algorithms need?",
			r.Opts.Repeats, r.Opts.Requests, r.Opts.Workers),
		"Algorithm", "Mean revenue", "Min", "Max", "StdDev/Mean")
	for _, row := range r.Rows {
		s := row.Summary
		tb.Add(row.Algorithm,
			stats.FormatFloat(s.MeanRevenue, 1),
			stats.FormatFloat(s.MinRevenue, 1),
			stats.FormatFloat(s.MaxRevenue, 1),
			stats.FormatFloat(s.RevenueStdDevFrac, 4))
	}
	return tb
}

// RunVariance quantifies how noisy each algorithm's revenue is across
// seeds on a fixed stream: TOTA is deterministic (zero spread); DemCOM
// varies only through its Monte-Carlo payments and acceptance probes;
// RamCOM additionally draws its value threshold k per run, which
// dominates its spread. The result justifies the repeat counts used by
// the table and sweep harnesses (see EXPERIMENTS.md).
func RunVariance(opts Grid) (*VarianceResult, error) {
	o := opts.withDefaults(2500, 500, 12)
	cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
	if err != nil {
		return nil, err
	}
	// The fixed stream: every (algorithm × seed) unit run reads it.
	p := o.plan(6367)
	if p.stream, err = workload.Generate(cfg, o.Seed); err != nil {
		return nil, err
	}
	var cells []cell
	for _, alg := range onlineAlgos {
		cells = append(cells, cell{label: "variance/" + alg, workload: cfg, spec: platform.Spec{Algorithm: alg}})
	}
	_, sums, err := simulateGrid(p, cells)
	if err != nil {
		return nil, err
	}
	res := &VarianceResult{Opts: o}
	for ci, s := range sums {
		res.Rows = append(res.Rows, VarianceRow{Algorithm: cells[ci].spec.Algorithm, Summary: s})
	}
	return res, nil
}
