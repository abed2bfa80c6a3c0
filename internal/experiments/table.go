// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section V), plus the competitive-ratio study and
// the ablations listed in DESIGN.md. cmd/combench and the module-level
// benchmarks are thin wrappers over these runners.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// TableRow is one method's line in a Table V/VI/VII-style result.
type TableRow struct {
	Method     string
	RevD       float64 // platform 1 ("DiDi-like") revenue
	RevY       float64 // platform 2 ("Yueche-like") revenue
	ResponseMs float64 // mean decision latency per request, milliseconds
	MemoryMB   float64 // live heap after the run
	CpRD       int     // completed requests, platform 1
	CpRY       int     // completed requests, platform 2
	CoR        int     // cooperative requests accepted (both platforms)
	AcpRt      float64 // acceptance ratio of cooperative requests
	PayRate    float64 // mean v'/v over cooperative assignments
	HasCoop    bool    // false for OFF and TOTA (their CoR/AcpRt print as "-")
	Refused    bool    // OFF's graph passed the exact solver's bound: no numbers
}

// TableResult is a full Table V/VI/VII reproduction.
type TableResult struct {
	Dataset string  // preset name, e.g. "RDC10+RYC10"
	Scale   float64 // fraction of the paper's Table III counts generated
	Seed    int64
	Rows    []TableRow
}

// Row returns the row for a method name.
func (t *TableResult) Row(method string) (TableRow, bool) {
	return find(t.Rows, func(r TableRow) bool { return r.Method == method })
}

// Table renders the result in the paper's layout.
func (t *TableResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Results on %s (scale %.3g, seed %d)", t.Dataset, t.Scale, t.Seed),
		"Methods", "Rev_D(x10^6)", "Rev_Y(x10^6)", "Response Time (ms)", "Memory (MB)",
		"|CpR(D)|", "|CpR(Y)|", "|CoR|", "AcpRt", "v'/v")
	for _, r := range t.Rows {
		if r.Refused {
			tb.Add(r.Method, "refused", "refused", "refused", "refused", "refused", "refused", "refused", "refused", "refused")
			continue
		}
		coR, acp, pay := stats.Dash, stats.Dash, stats.Dash
		if r.HasCoop {
			coR = stats.FormatCount(r.CoR)
			acp = stats.FormatFloat(r.AcpRt, 2)
			pay = stats.FormatFloat(r.PayRate, 2)
		}
		tb.Add(r.Method,
			stats.FormatFloat(r.RevD/1e6, 3),
			stats.FormatFloat(r.RevY/1e6, 3),
			stats.FormatFloat(r.ResponseMs, 2),
			stats.FormatFloat(r.MemoryMB, 2),
			stats.FormatCount(r.CpRD),
			stats.FormatCount(r.CpRY),
			coR, acp, pay)
	}
	return tb
}

// TableOptions configures a table reproduction run.
type TableOptions struct {
	// Scale shrinks the Table III dataset counts (1 = full size). The
	// harness defaults to 0.05 so a full table regenerates in seconds;
	// EXPERIMENTS.md records the scale of every published run.
	Scale float64
	// Seed drives generation and every algorithm's randomness.
	Seed int64
	// SkipOFF drops the OFF row (used by the biggest runs where the
	// exact solver is the bottleneck).
	SkipOFF bool
	// Repeats averages each online algorithm over this many seeds
	// (default 3). The paper's Table III numbers are per-day averages
	// over a month of days; averaging over seeds plays the same role and
	// in particular averages RamCOM over draws of its random threshold
	// k, which a single run fixes.
	Repeats int
	// Runner fans the table's unit runs (OFF plus Repeats seeds per
	// online algorithm) across a worker pool; nil uses GOMAXPROCS.
	Runner *Runner
}

// RunTable reproduces one of Tables V-VII: it generates the preset's two
// platforms, runs OFF, TOTA, DemCOM and RamCOM on the same stream, and
// reports the paper's nine metrics per method. OFF refusing a graph past
// its bound (platform.ErrOfflineRefused) makes its row read refused; any
// other error fails the table.
func RunTable(preset workload.Preset, opts TableOptions) (*TableResult, error) {
	o := opts
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	cfg, err := preset.Config(o.Scale)
	if err != nil {
		return nil, err
	}
	stream, err := workload.Generate(cfg, o.Seed)
	if err != nil {
		return nil, err
	}
	return runTable(preset.Name, cfg, stream, o)
}

// runTable is RunTable on a given stream; cfg supplies the threshold
// algorithms' max value.
func runTable(name string, cfg workload.Config, stream *core.Stream, o TableOptions) (*TableResult, error) {
	// The stream is shared by every unit run; OFF, when present, is a
	// cell of one unit with no matcher.
	var cells []cell
	if !o.SkipOFF {
		cells = append(cells, cell{label: name + "/" + platform.AlgOFF, once: true})
	}
	for _, alg := range onlineAlgos {
		cells = append(cells, cell{label: name + "/" + alg, workload: cfg, spec: platform.Spec{Algorithm: alg}})
	}
	// A unit keeps its whole result, not just its row: the memory column
	// below is the heap with the stream and every result live.
	type tableUnit struct {
		run *platform.Result
		row TableRow
	}
	units, err := runGrid(plan{runner: o.Runner, seed: o.Seed, stride: 9973, repeats: o.Repeats, stream: stream}, cells,
		func(ci int, u unit) (tableUnit, error) {
			if u.factory == nil {
				row, err := runOff(u.stream)
				return tableUnit{row: row}, err
			}
			run, err := u.simulate()
			if err != nil {
				return tableUnit{}, err
			}
			if err := run.Validate(); err != nil {
				return tableUnit{}, fmt.Errorf("%s produced invalid matching: %w", cells[ci].spec.Algorithm, err)
			}
			return tableUnit{run, rowFromRun(run, cells[ci].spec.Algorithm)}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &TableResult{Dataset: name, Scale: o.Scale, Seed: o.Seed}
	for ci, c := range cells {
		if c.spec.Algorithm == "" {
			res.Rows = append(res.Rows, units[ci][0].row)
			continue
		}
		col := func(f func(TableRow) float64) float64 {
			return mean(units[ci], func(u tableUnit) float64 { return f(u.row) })
		}
		res.Rows = append(res.Rows, TableRow{
			Method:     c.spec.Algorithm,
			HasCoop:    c.spec.Algorithm != platform.AlgTOTA,
			RevD:       col(func(r TableRow) float64 { return r.RevD }),
			RevY:       col(func(r TableRow) float64 { return r.RevY }),
			ResponseMs: col(func(r TableRow) float64 { return r.ResponseMs }),
			MemoryMB:   stats.MemoryMB(),
			CpRD:       int(col(func(r TableRow) float64 { return float64(r.CpRD) }) + 0.5),
			CpRY:       int(col(func(r TableRow) float64 { return float64(r.CpRY) }) + 0.5),
			CoR:        int(col(func(r TableRow) float64 { return float64(r.CoR) }) + 0.5),
			AcpRt:      col(func(r TableRow) float64 { return r.AcpRt }),
			PayRate:    col(func(r TableRow) float64 { return r.PayRate }),
		})
	}
	runtime.KeepAlive(stream) // keep the input inside the memory measurement
	runtime.KeepAlive(units)
	return res, nil
}

func runOff(stream *core.Stream) (TableRow, error) {
	start := time.Now()
	off, err := platform.Offline(stream)
	if errors.Is(err, platform.ErrOfflineRefused) {
		return TableRow{Method: platform.AlgOFF, Refused: true}, nil
	}
	if err != nil {
		return TableRow{}, err
	}
	elapsed := time.Since(start)
	nReq := len(stream.Requests())
	row := TableRow{
		Method:   platform.AlgOFF,
		RevD:     off.Revenue[1],
		RevY:     off.Revenue[2],
		CpRD:     off.Served[1],
		CpRY:     off.Served[2],
		MemoryMB: stats.MemoryMB(),
	}
	if nReq > 0 {
		row.ResponseMs = float64(elapsed) / float64(time.Millisecond) / float64(nReq)
	}
	return row, nil
}

// rowFromRun extracts a table row from one simulation result (memory is
// the caller's concern — it depends on what else is live).
func rowFromRun(run *platform.Result, name string) TableRow {
	row := TableRow{Method: name, HasCoop: name != platform.AlgTOTA, ResponseMs: responseMs(run)}
	if p := run.Platforms[1]; p != nil {
		row.RevD, row.CpRD = p.Stats.Revenue, p.Stats.Served
	}
	if p := run.Platforms[2]; p != nil {
		row.RevY, row.CpRY = p.Stats.Revenue, p.Stats.Served
	}
	if row.HasCoop {
		row.CoR = run.CooperativeServed()
		row.AcpRt = run.AcceptanceRatio()
		row.PayRate = run.MeanPaymentRate()
	}
	return row
}

// responseMs is a run's mean decision latency per request, in
// milliseconds, over all platforms.
func responseMs(run *platform.Result) float64 {
	var total time.Duration
	requests := 0
	for _, pr := range run.Platforms {
		total += pr.Latency.Sum()
		requests += pr.Stats.Requests
	}
	if requests == 0 {
		return 0
	}
	return float64(total) / float64(time.Millisecond) / float64(requests)
}
