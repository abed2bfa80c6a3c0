package experiments

import (
	"fmt"
	"io"
	"sort"

	"crossmatch/internal/core"
	"crossmatch/internal/online"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// WindowOptions configures the BatchCOM window-size sweep: how does
// batching arrivals for W virtual ticks trade dispatch wait against
// revenue, versus the immediate-dispatch DemCOM baseline?
type WindowOptions struct {
	Grid
	// Windows are the BatchCOM window lengths swept, in virtual ticks
	// (default 1, 2, 5, 10, 25, 50).
	Windows []core.Time
	// Deadline, when positive, caps per-request buffering, pulling a
	// window flush forward (platform.Spec.BatchDeadline).
	Deadline core.Time
}

// WindowRow is one (algorithm, window) measurement, averaged over the
// repeats. Window 0 is the immediate-dispatch baseline.
type WindowRow struct {
	Algorithm string
	Window    core.Time
	Revenue   float64
	Served    float64
	// WaitP99 is the 99th-percentile dispatch wait in virtual ticks:
	// decision time minus arrival time, zero for immediate dispatch.
	WaitP99 float64
	// WaitMax is the largest observed dispatch wait in virtual ticks.
	WaitMax float64
	// Bound is the wait each request is guaranteed: the window length,
	// shortened to the per-request deadline when one is set. Zero (no
	// buffering) for the greedy baseline.
	Bound core.Time
}

// WindowResult is the full sweep.
type WindowResult struct {
	Opts WindowOptions
	Rows []WindowRow
}

// Row fetches one measurement.
func (r *WindowResult) Row(alg string, window core.Time) (WindowRow, bool) {
	return find(r.Rows, func(row WindowRow) bool { return row.Algorithm == alg && row.Window == window })
}

// Table renders the sweep.
func (r *WindowResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("BatchCOM window sweep (|R|=%d, |W|=%d, rad=%.1f, deadline=%d, %d repeats)",
			r.Opts.Requests, r.Opts.Workers, r.Opts.Radius, r.Opts.Deadline, r.Opts.Repeats),
		"Algorithm", "Window", "Revenue", "Served", "WaitP99", "WaitMax", "Bound")
	for _, row := range r.Rows {
		tb.Add(row.Algorithm, fmt.Sprintf("%d", row.Window),
			stats.FormatFloat(row.Revenue, 1),
			stats.FormatFloat(row.Served, 1),
			stats.FormatFloat(row.WaitP99, 1),
			stats.FormatFloat(row.WaitMax, 1),
			fmt.Sprintf("%d", row.Bound))
	}
	return tb
}

// WriteNote explains how to read the sweep against the paper's
// deadline-matching predictions.
func (r *WindowResult) WriteNote(w io.Writer) error {
	_, err := fmt.Fprintln(w, "Window 0 is DemCOM (immediate dispatch). WaitP99/WaitMax are virtual-tick"+
		"\ndispatch waits (decision tick − arrival tick); Bound is the per-request"+
		"\nguarantee min(window, deadline). Larger windows pool more candidate edges"+
		"\nper batch at the cost of bounded wait.")
	return err
}

// waitBound is the per-request buffering guarantee for a window length.
func waitBound(window, deadline core.Time) core.Time {
	if deadline > 0 && deadline < window {
		return deadline
	}
	return window
}

// p99 returns the 99th-percentile of xs (max for tiny samples).
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := (99*len(xs) + 99) / 100
	if idx > len(xs) {
		idx = len(xs)
	}
	return xs[idx-1]
}

// windowUnit is one unit run's measurements.
type windowUnit struct {
	revenue float64
	served  float64
	waitP99 float64
	waitMax float64
}

// runWindowUnit drives one engine over the unit's stream, collecting the
// dispatch wait of every request decision through the decision handler:
// At is the arrival tick for an immediate decision and the flush tick
// for a windowed one.
func runWindowUnit(u unit) (windowUnit, error) {
	eng, err := platform.NewEngine(u.stream.Platforms(), u.factory, u.cfg)
	if err != nil {
		return windowUnit{}, err
	}
	var waits []float64
	eng.SetDecisionHandler(func(d online.Decided) {
		waits = append(waits, float64(d.At-d.Request.Arrival))
	})
	for _, ev := range u.stream.Events() {
		if _, err := eng.Process(ev); err != nil {
			return windowUnit{}, err
		}
	}
	res, err := eng.Finish()
	if err != nil {
		return windowUnit{}, err
	}
	wu := windowUnit{revenue: res.TotalRevenue(), served: float64(res.TotalServed()), waitP99: p99(waits)}
	for _, w := range waits {
		if w > wu.waitMax {
			wu.waitMax = w
		}
	}
	return wu, nil
}

// RunWindow sweeps BatchCOM's window length against the DemCOM
// baseline (reported as window 0): revenue, served count and the
// dispatch-wait distribution, whose tail must stay inside the
// min(window, deadline) buffering guarantee. Deterministic for a fixed
// seed: every unit run goes through the incremental engine, the same
// runtime the serving layer drives.
func RunWindow(opts WindowOptions) (*WindowResult, error) {
	o := opts
	o.Grid = o.Grid.withDefaults(2500, 500, 3)
	if len(o.Windows) == 0 {
		o.Windows = []core.Time{1, 2, 5, 10, 25, 50}
	}
	res := &WindowResult{Opts: o}
	cfg, err := workload.Synthetic(o.Requests, o.Workers, o.Radius, "real")
	if err != nil {
		return nil, err
	}

	// Cells: the DemCOM baseline, then one BatchCOM cell per window.
	cells := []cell{{label: "window/" + platform.AlgDemCOM + "/w0", workload: cfg, spec: platform.Spec{Algorithm: platform.AlgDemCOM}}}
	res.Rows = []WindowRow{{Algorithm: platform.AlgDemCOM}}
	for _, w := range o.Windows {
		cells = append(cells, cell{label: fmt.Sprintf("window/%s/w%d", platform.AlgBatchCOM, w), workload: cfg,
			spec: platform.Spec{Algorithm: platform.AlgBatchCOM, Window: w, BatchDeadline: o.Deadline}})
		res.Rows = append(res.Rows, WindowRow{Algorithm: platform.AlgBatchCOM, Window: w, Bound: waitBound(w, o.Deadline)})
	}
	units, err := runGrid(o.plan(7717), cells, func(_ int, u unit) (windowUnit, error) { return runWindowUnit(u) })
	if err != nil {
		return nil, err
	}
	for ci, us := range units {
		row := &res.Rows[ci]
		row.Revenue = mean(us, func(u windowUnit) float64 { return u.revenue })
		row.Served = mean(us, func(u windowUnit) float64 { return u.served })
		row.WaitP99 = mean(us, func(u windowUnit) float64 { return u.waitP99 })
		for _, u := range us {
			if u.waitMax > row.WaitMax {
				row.WaitMax = u.waitMax
			}
		}
	}
	return res, nil
}
