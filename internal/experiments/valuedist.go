package experiments

import (
	"fmt"

	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// ValueDistRow is one (algorithm, distribution) measurement.
type ValueDistRow struct {
	Algorithm string
	Dist      string
	Revenue   float64
	Served    float64
	AcptRatio float64
	PayRate   float64
}

// ValueDistResult is the full factor study.
type ValueDistResult struct {
	Opts Grid
	Rows []ValueDistRow
}

// Row fetches one measurement.
func (r *ValueDistResult) Row(alg, dist string) (ValueDistRow, bool) {
	return find(r.Rows, func(row ValueDistRow) bool { return row.Algorithm == alg && row.Dist == dist })
}

// Table renders the study.
func (r *ValueDistResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Value distribution factor (|R|=%d, |W|=%d, rad=%.1f, %d repeats)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Repeats),
		"Algorithm", "Distribution", "Revenue", "Served", "AcpRt", "v'/v")
	for _, row := range r.Rows {
		tb.Add(row.Algorithm, row.Dist,
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.AcptRatio, 3),
			stats.FormatFloat(row.PayRate, 3))
	}
	return tb
}

// RunValueDist measures the three online algorithms under Table IV's
// two value distributions — the heavy-tailed "real" (log-normal) fares
// and the symmetric "normal" ones — holding everything else at the
// defaults. The paper reports that the default value distribution "has
// little influence to the experimental results on scalability"; this
// study verifies the orderings it relies on are indeed
// distribution-stable.
func RunValueDist(opts Grid) (*ValueDistResult, error) {
	o := opts.withDefaults(2500, 500, 3)
	res := &ValueDistResult{Opts: o}
	var cells []cell
	for _, dist := range []string{"real", "normal"} {
		cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, dist)
		if err != nil {
			return nil, err
		}
		for _, alg := range onlineAlgos {
			cells = append(cells, cell{label: "valuedist/" + dist + "/" + alg, workload: cfg, spec: platform.Spec{Algorithm: alg}})
			res.Rows = append(res.Rows, ValueDistRow{Algorithm: alg, Dist: dist})
		}
	}
	_, sums, err := simulateGrid(o.plan(4447), cells)
	if err != nil {
		return nil, err
	}
	for ci, s := range sums {
		row := &res.Rows[ci]
		row.Revenue, row.Served, row.AcptRatio, row.PayRate = s.MeanRevenue, s.MeanServed, s.MeanAcceptance, s.MeanPaymentRate
	}
	return res, nil
}
