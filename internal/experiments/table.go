// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section V), plus the competitive-ratio study and
// the ablations listed in DESIGN.md. cmd/combench and the module-level
// benchmarks are thin wrappers over these runners.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
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
	for _, r := range t.Rows {
		if r.Method == method {
			return r, true
		}
	}
	return TableRow{}, false
}

// Table renders the result in the paper's layout.
func (t *TableResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Results on %s (scale %.3g, seed %d)", t.Dataset, t.Scale, t.Seed),
		"Methods", "Rev_D(x10^6)", "Rev_Y(x10^6)", "Response Time (ms)", "Memory (MB)",
		"|CpR(D)|", "|CpR(Y)|", "|CoR|", "AcpRt", "v'/v")
	for _, r := range t.Rows {
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
	// MC configures DemCOM's Algorithm 2 (DefaultMonteCarlo when zero).
	MC pricing.MonteCarlo
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

func (o *TableOptions) withDefaults() TableOptions {
	out := *o
	if out.Scale == 0 {
		out.Scale = 0.05
	}
	if out.MC == (pricing.MonteCarlo{}) {
		out.MC = pricing.DefaultMonteCarlo
	}
	if out.Repeats <= 0 {
		out.Repeats = 3
	}
	return out
}

// RunTable reproduces one of Tables V-VII: it generates the preset's two
// platforms, runs OFF, TOTA, DemCOM and RamCOM on the same stream, and
// reports the paper's nine metrics per method.
func RunTable(preset workload.Preset, opts TableOptions) (*TableResult, error) {
	o := opts.withDefaults()
	cfg, err := preset.Config(o.Scale)
	if err != nil {
		return nil, err
	}
	stream, err := workload.Generate(cfg, o.Seed)
	if err != nil {
		return nil, err
	}
	res := &TableResult{Dataset: preset.Name, Scale: o.Scale, Seed: o.Seed}

	maxV := cfg.MaxValue()
	type algo struct {
		name    string
		factory platform.MatcherFactory
		coop    bool
	}
	algos := []algo{
		{platform.AlgTOTA, platform.TOTAFactory(), false},
		{platform.AlgDemCOM, platform.DemCOMFactory(o.MC, false), true},
		{platform.AlgRamCOM, platform.RamCOMFactory(maxV, platform.RamCOMOptions{}), true},
	}

	// Every unit run — OFF (optional) plus Repeats seeds per online
	// algorithm — is independent: the stream is read-only during
	// simulation, so one copy is shared by all runs. Fan them across the
	// runner's pool; outs arrives in submission order, so aggregation
	// below is schedule-independent. Online run (ai, rep) lands at
	// offset + ai*Repeats + rep.
	type unit struct {
		run *platform.Result
		off TableRow
	}
	offset := 0
	if !o.SkipOFF {
		offset = 1
	}
	outs, err := runAll(o.Runner, offset+len(algos)*o.Repeats, func(i int) (unit, error) {
		if i < offset {
			row, err := runOff(stream)
			return unit{off: row}, err
		}
		a := algos[(i-offset)/o.Repeats]
		rep := (i - offset) % o.Repeats
		seed := o.Seed + int64(rep)*9973
		run, err := platform.Run(stream, a.factory,
			o.Runner.simConfig(seed, false, preset.Name+"/"+a.name))
		if err != nil {
			return unit{}, err
		}
		if err := run.Validate(); err != nil {
			return unit{}, fmt.Errorf("%s produced invalid matching: %w", a.name, err)
		}
		return unit{run: run}, nil
	})
	if err != nil {
		return nil, err
	}
	if offset == 1 {
		res.Rows = append(res.Rows, outs[0].off)
	}
	n := float64(o.Repeats)
	for ai, a := range algos {
		acc := TableRow{Method: a.name, HasCoop: a.coop}
		for rep := 0; rep < o.Repeats; rep++ {
			row := rowFromRun(outs[offset+ai*o.Repeats+rep].run, a.name, a.coop)
			acc.RevD += row.RevD
			acc.RevY += row.RevY
			acc.ResponseMs += row.ResponseMs
			acc.CpRD += row.CpRD
			acc.CpRY += row.CpRY
			acc.CoR += row.CoR
			acc.AcpRt += row.AcpRt
			acc.PayRate += row.PayRate
		}
		acc.RevD /= n
		acc.RevY /= n
		acc.ResponseMs /= n
		acc.MemoryMB = stats.MemoryMB() // heap with stream + all results live
		acc.CpRD = int(float64(acc.CpRD)/n + 0.5)
		acc.CpRY = int(float64(acc.CpRY)/n + 0.5)
		acc.CoR = int(float64(acc.CoR)/n + 0.5)
		acc.AcpRt /= n
		acc.PayRate /= n
		res.Rows = append(res.Rows, acc)
	}
	runtime.KeepAlive(stream) // keep the input inside the memory measurement
	runtime.KeepAlive(outs)
	return res, nil
}

func runOff(stream *core.Stream) (TableRow, error) {
	start := time.Now()
	off, err := platform.Offline(stream)
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
func rowFromRun(run *platform.Result, name string, coop bool) TableRow {
	row := TableRow{Method: name, HasCoop: coop}
	var totalResp time.Duration
	var totalReq int
	for pid, pr := range run.Platforms {
		totalResp += pr.ResponseTotal
		totalReq += pr.Stats.Requests
		switch pid {
		case 1:
			row.RevD = pr.Stats.Revenue
			row.CpRD = pr.Stats.Served
		case 2:
			row.RevY = pr.Stats.Revenue
			row.CpRY = pr.Stats.Served
		}
	}
	if totalReq > 0 {
		row.ResponseMs = float64(totalResp) / float64(time.Millisecond) / float64(totalReq)
	}
	if coop {
		row.CoR = run.CooperativeServed()
		row.AcpRt = run.AcceptanceRatio()
		row.PayRate = run.MeanPaymentRate()
	}
	return row
}
