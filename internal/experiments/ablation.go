package experiments

import (
	"fmt"

	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// AblationRow is one variant's averaged outcome.
type AblationRow struct {
	Variant   string
	Revenue   float64
	Served    float64
	CoR       float64
	AcptRatio float64
	PayRate   float64
}

// AblationResult is the full study.
type AblationResult struct {
	Opts Grid
	Rows []AblationRow
}

// Row returns the named variant's row.
func (r *AblationResult) Row(variant string) (AblationRow, bool) {
	return find(r.Rows, func(row AblationRow) bool { return row.Variant == variant })
}

// Table renders the study.
func (r *AblationResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Ablations (|R|=%d, |W|=%d, rad=%.1f, %d repeats)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Repeats),
		"Variant", "Revenue", "Served", "|CoR|", "AcpRt", "v'/v")
	for _, row := range r.Rows {
		tb.Add(row.Variant,
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.CoR, 1),
			stats.FormatFloat(row.AcptRatio, 3),
			stats.FormatFloat(row.PayRate, 3))
	}
	return tb
}

// Ablation variant names.
const (
	VarTOTA             = "TOTA (no cooperation)"
	VarDemCOM           = "DemCOM (Alg 2 Monte-Carlo)"
	VarDemCOMOracle     = "DemCOM (oracle min payment)"
	VarDemCOMNoCoop     = "DemCOM (hub disabled)"
	VarRamCOM           = "RamCOM (exact E-rev pricing)"
	VarRamCOMThreshold  = "RamCOM (1/e threshold pricing)"
	VarRamCOMMinPayment = "RamCOM (min-payment pricing)"
	VarRamCOMLiteral    = "RamCOM (literal Alg 3, no fallback)"
	VarRamCOMNoCoop     = "RamCOM (hub disabled)"
)

// RunAblations measures the design-choice variants DESIGN.md calls out:
// Algorithm 2's Monte-Carlo estimator vs an oracle payment, RamCOM's
// exact expected-revenue pricing vs the 1/e threshold quote vs DemCOM's
// minimum-payment pricing, and both COM algorithms with the cooperation
// hub disabled (the degradation-to-TOTA claim of Section III-D).
func RunAblations(opts Grid) (*AblationResult, error) {
	o := opts.withDefaults(2500, 500, 3)
	cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
	if err != nil {
		return nil, err
	}
	maxV := cfg.MaxValue()

	// One cell per variant, labelled with its name. A variant a name can
	// express goes through the resolver like any other cell; the rest
	// spell out their constructor.
	cells := []cell{
		{label: VarTOTA, spec: platform.Spec{Algorithm: platform.AlgTOTA}},
		{label: VarDemCOM, spec: platform.Spec{Algorithm: platform.AlgDemCOM}},
		{label: VarDemCOMOracle, spec: platform.Spec{Algorithm: platform.AlgDemCOM}, factory: platform.DemCOMFactory(pricing.DefaultMonteCarlo, true)},
		{label: VarDemCOMNoCoop, spec: platform.Spec{Algorithm: platform.AlgDemCOM, DisableCoop: true}},
		{label: VarRamCOM, spec: platform.Spec{Algorithm: platform.AlgRamCOM}},
		{label: VarRamCOMThreshold, spec: platform.Spec{Algorithm: platform.AlgRamCOM}, factory: platform.RamCOMFactory(maxV, platform.RamCOMOptions{ThresholdPricing: true})},
		{label: VarRamCOMMinPayment, spec: platform.Spec{Algorithm: platform.AlgRamCOM}, factory: platform.RamCOMFactory(maxV, platform.RamCOMOptions{MinPaymentPricing: true})},
		{label: VarRamCOMLiteral, spec: platform.Spec{Algorithm: platform.AlgRamCOM}, factory: platform.RamCOMFactory(maxV, platform.RamCOMOptions{NoInnerFallback: true})},
		{label: VarRamCOMNoCoop, spec: platform.Spec{Algorithm: platform.AlgRamCOM, DisableCoop: true}},
	}
	res := &AblationResult{Opts: o}
	for i := range cells {
		res.Rows = append(res.Rows, AblationRow{Variant: cells[i].label})
		cells[i].label, cells[i].workload = "ablation/"+cells[i].label, cfg
	}
	runs, sums, err := simulateGrid(o.plan(6151), cells)
	if err != nil {
		return nil, err
	}
	for vi, s := range sums {
		row := &res.Rows[vi]
		row.Revenue, row.Served, row.CoR, row.PayRate = s.MeanRevenue, s.MeanServed, s.MeanCooperative, s.MeanPaymentRate
		// The acceptance ratio is pooled over the repeats, not averaged:
		// all cooperative requests served over all attempted.
		attempted := 0.0
		for _, run := range runs[vi] {
			for _, pr := range run.Platforms {
				attempted += float64(pr.Stats.CoopAttempted)
			}
		}
		if attempted > 0 {
			row.AcptRatio = row.CoR * float64(o.Repeats) / attempted
		}
	}
	return res, nil
}
