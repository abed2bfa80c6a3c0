package experiments

import (
	"fmt"

	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// PlatformCountOptions configures the cooperating-platform-count study.
type PlatformCountOptions struct {
	// Grid's Requests/Workers are city-wide totals shared by all
	// platforms.
	Grid
	// Counts are the platform counts to sweep (default {2, 3, 4, 6}).
	Counts []int
}

// PlatformCountRow is one (count, algorithm) measurement.
type PlatformCountRow struct {
	Platforms int
	Algorithm string
	Revenue   float64
	Served    float64
	CoR       float64
}

// PlatformCountResult is the full study.
type PlatformCountResult struct {
	Opts PlatformCountOptions
	Rows []PlatformCountRow
}

// Row fetches one measurement.
func (r *PlatformCountResult) Row(n int, alg string) (PlatformCountRow, bool) {
	return find(r.Rows, func(row PlatformCountRow) bool { return row.Platforms == n && row.Algorithm == alg })
}

// Table renders the study.
func (r *PlatformCountResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Cooperating platform count (city totals |R|=%d, |W|=%d, rad=%.1f, %d repeats)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Repeats),
		"Platforms", "Algorithm", "Total revenue", "Served", "|CoR|")
	for _, row := range r.Rows {
		tb.Add(fmt.Sprint(row.Platforms), row.Algorithm,
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.CoR, 1))
	}
	return tb
}

// RunPlatformCount extends the paper's two-platform evaluation to n-way
// cooperation (Definition 2.3 allows several lender platforms): the same
// city-wide demand and fleet split across 2..6 platforms. Fragmentation
// hurts TOTA — each platform sees a smaller slice of supply near its own
// demand — while the hub lets the COM algorithms reassemble the full
// fleet, so the COM-over-TOTA gap widens with the platform count.
func RunPlatformCount(opts PlatformCountOptions) (*PlatformCountResult, error) {
	o := opts
	o.Grid = o.Grid.withDefaults(2500, 500, 3)
	if len(o.Counts) == 0 {
		o.Counts = []int{2, 3, 4, 6}
	}
	res := &PlatformCountResult{Opts: o}
	var cells []cell
	for _, n := range o.Counts {
		cfg, err := workload.SyntheticMulti(n, o.Requests, o.Workers, o.Radius, "real")
		if err != nil {
			return nil, err
		}
		for _, alg := range onlineAlgos {
			cells = append(cells, cell{label: fmt.Sprintf("platforms=%d/%s", n, alg), workload: cfg, spec: platform.Spec{Algorithm: alg}})
			res.Rows = append(res.Rows, PlatformCountRow{Platforms: n, Algorithm: alg})
		}
	}
	_, sums, err := simulateGrid(o.plan(3371), cells)
	if err != nil {
		return nil, err
	}
	for ci, s := range sums {
		row := &res.Rows[ci]
		row.Revenue, row.Served, row.CoR = s.MeanRevenue, s.MeanServed, s.MeanCooperative
	}
	return res, nil
}
