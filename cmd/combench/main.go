// Command combench regenerates the paper's evaluation: Tables V-VII,
// the twelve Fig. 5 sub-plots, the competitive-ratio study and the
// ablations. Results print as aligned text (or CSV with -csv).
//
// Usage:
//
//	combench -exp all                # everything, default scales
//	combench -exp tableV -scale 0.1  # one table at 10% of paper size
//	combench -exp fig5a -plot        # one figure series + ASCII chart
//	combench -exp cr                 # competitive ratios
//	combench -exp ablations         # design-choice ablations
//	combench -exp faults            # fault-rate vs revenue/coverage sweep
//	combench -exp tableV -faults drop=0.2,latency=0.3:1ms-10ms
//
// Experiment ids: tableV tableVI tableVII fig5a..fig5l cr ablations
// roadnet valuedist platforms variance faults window scaling all
// (`all` runs every one but scaling; `combench -h` prints the list).
//
// The window experiment sweeps BatchCOM's batching window (-window
// lists the lengths, -batch-deadline caps per-request buffering)
// against the immediate-dispatch DemCOM baseline.
//
// The -faults flag injects a cooperation fault plan into every unit
// run; see EXPERIMENTS.md "Fault model & degradation" for the grammar
// (latency=RATE:MIN-MAX, drop=RATE, claimerr=RATE, outage=PID@FROM-UNTIL,
// deadline, attempts, backoff, threshold, cooldown).
//
// The -trace flag records per-request decision spans and prints a
// per-algorithm stage-latency report after the experiments; -trace-out
// exports the spans (.jsonl, or Chrome trace-event JSON for Perfetto),
// -trace-sample thins them, -trace-cap resizes the per-platform rings.
// See EXPERIMENTS.md "Decision tracing".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"crossmatch/internal/core"

	"crossmatch/internal/experiments"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/stats"
	"crossmatch/internal/trace"
	"crossmatch/internal/workload"
)

func main() {
	var (
		exp         = flag.String("exp", "all", expHelp())
		scale       = flag.Float64("scale", 0.05, "fraction of the paper's Table III dataset sizes for table experiments")
		seed        = flag.Int64("seed", 42, "root random seed")
		repeats     = flag.Int("repeats", 3, "seeds averaged per measurement")
		cap         = flag.Float64("cap", 0, "truncate sweep axes at this value (0 = full Table IV axes)")
		csvOut      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		plot        = flag.Bool("plot", false, "render figure series as ASCII charts alongside the tables")
		par         = flag.Int("par", 0, "worker-pool size for unit runs (0 = GOMAXPROCS, 1 = sequential)")
		metricsPath = flag.String("metrics", "", "write an aggregate metrics report as JSON to this file ('-' = stderr)")
		faultsSpec  = flag.String("faults", "", "cooperation fault plan for every unit run, e.g. 'drop=0.1,latency=0.2:1ms-10ms,outage=2@100-300' (see EXPERIMENTS.md)")
		faultSeed   = flag.Int64("fault-seed", 0, "root seed for fault randomness (requires -faults; 0 derives it from the run seed)")
		traceOn     = flag.Bool("trace", false, "record per-request decision spans and print the stage-latency report")
		traceOut    = flag.String("trace-out", "", "write retained spans to this file: .jsonl = JSONL, anything else = Chrome trace-event JSON loadable in Perfetto (requires -trace)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests traced, in [0,1]; 0 traces everything (requires -trace)")
		traceCap    = flag.Int("trace-cap", 0, "span ring capacity per platform (0 = default; oldest spans evicted once full; requires -trace)")
		windowSpec  = flag.String("window", "", "comma-separated BatchCOM window lengths in virtual ticks for -exp window (empty = default sweep)")
		batchDeadl  = flag.Int64("batch-deadline", 0, "per-request buffering cap in virtual ticks for -exp window (0 = window-boundary flushes only)")
		citySpec    = flag.String("city", "", "comma-separated worker counts for -exp scaling cities; each city has 10x its workers in events (empty = 10000,100000)")
	)
	flag.Parse()
	repeatsSet := false
	flag.Visit(func(f *flag.Flag) { repeatsSet = repeatsSet || f.Name == "repeats" })
	plan, err := validateFaultFlags(*faultsSpec, *faultSeed)
	usageIf(err)
	tracer, err := validateTraceFlags(*traceOn, *traceOut, *traceSample, *traceCap)
	usageIf(err)
	runner := &experiments.Runner{Parallelism: *par, FaultPlan: plan, Trace: tracer}
	if *metricsPath != "" {
		runner.Metrics = metrics.New()
	}
	windows, err := parseWindows(*windowSpec, *batchDeadl)
	usageIf(err)
	cityWorkers, err := parseCounts("-city", *citySpec)
	usageIf(err)
	if err := run(os.Stdout, *exp, params{
		scale: *scale, seed: *seed, repeats: *repeats, repeatsSet: repeatsSet, cap: *cap, csv: *csvOut, plot: *plot,
		faultSeed: *faultSeed, windows: windows, batchDeadline: core.Time(*batchDeadl),
		city: cityWorkers, runner: runner,
	}); err != nil {
		if errors.Is(err, workload.ErrUnknownPreset) {
			fmt.Fprintf(os.Stderr, "combench: %v\nrun 'combench -h' for usage\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "combench: %v\n", err)
		}
		os.Exit(1)
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, runner.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "combench: %v\n", err)
			os.Exit(1)
		}
	}
	if tracer != nil {
		if err := finishTrace(os.Stdout, tracer, *traceOut, *csvOut); err != nil {
			fmt.Fprintf(os.Stderr, "combench: %v\n", err)
			os.Exit(1)
		}
	}
}

// usageIf exits 2 on a flag combination that cannot run as written.
func usageIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "combench: %v\nrun 'combench -h' for usage\n", err)
		os.Exit(2)
	}
}

// validateFaultFlags parses -faults and rejects contradictory flag
// combinations up front — a typo'd fault key or an impossible plan must
// be a usage error, never a silently fault-free run.
func validateFaultFlags(spec string, faultSeed int64) (*fault.Plan, error) {
	if spec == "" {
		if faultSeed != 0 {
			return nil, fmt.Errorf("-fault-seed requires -faults (no fault plan to seed)")
		}
		return nil, nil
	}
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	plan.Seed = faultSeed
	return plan, nil
}

// validateTraceFlags builds the tracer, rejecting trace flags given
// without -trace — a -trace-out with no tracer must be a usage error,
// never a silently missing file.
func validateTraceFlags(on bool, out string, sample float64, capacity int) (*trace.Tracer, error) {
	if !on {
		switch {
		case out != "":
			return nil, fmt.Errorf("-trace-out requires -trace")
		case sample != 0:
			return nil, fmt.Errorf("-trace-sample requires -trace")
		case capacity != 0:
			return nil, fmt.Errorf("-trace-cap requires -trace")
		}
		return nil, nil
	}
	if err := trace.CheckFlags(sample, capacity); err != nil {
		return nil, err
	}
	return trace.New(trace.Options{Capacity: capacity, Sample: sample}), nil
}

// finishTrace prints the stage-latency report and writes the span file
// (.jsonl = JSONL, anything else = Chrome trace-event JSON).
func finishTrace(w io.Writer, tracer *trace.Tracer, out string, csvOut bool) error {
	rep := tracer.Report()
	var err error
	if csvOut {
		err = rep.Table().RenderCSV(w)
	} else {
		err = rep.WriteText(w)
	}
	if err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(out, ".jsonl") {
		err = tracer.WriteJSONL(f)
	} else {
		err = tracer.WriteChromeTrace(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

func writeMetrics(path string, c *metrics.Collector) error {
	out := io.Writer(os.Stderr)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return c.Snapshot().WriteJSON(out)
}

// parseWindows parses the -window list and rejects window flags that
// cannot take effect — a malformed or non-positive length must be a
// usage error, never a silently defaulted sweep.
func parseWindows(spec string, deadline int64) ([]core.Time, error) {
	if deadline < 0 {
		return nil, fmt.Errorf("-batch-deadline must be non-negative, got %d", deadline)
	}
	counts, err := parseCounts("-window", spec)
	var out []core.Time
	for _, n := range counts {
		out = append(out, core.Time(n))
	}
	return out, err
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(name, spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%s: %q is not a positive count", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// params is what the flags say about how to run an experiment.
type params struct {
	scale         float64
	seed          int64
	repeats       int
	cap           float64
	csv, plot     bool
	faultSeed     int64
	windows       []core.Time
	batchDeadline core.Time
	city          []int
	runner        *experiments.Runner
	// repeatsSet is true when -repeats was given: the variance study
	// measures its own default of 12 seeds otherwise, not the flag's 3.
	repeatsSet bool
}

// session is one run call: the params, the output, and the sweeps the
// four figures of one axis share.
type session struct {
	params
	w      io.Writer
	sweeps map[experiments.SweepAxis]*experiments.SweepResult
}

// experiment is one row of the table below: an id `-exp` accepts and
// what it runs.
type experiment struct {
	id  string
	run func(s *session) error
}

// experimentTable is every experiment combench knows, in the order
// `-exp all` runs them. The `-exp` help text, `all` and the unknown-id
// error are all read from it.
var experimentTable = []experiment{
	{"tableV", table("RDC10+RYC10")},
	{"tableVI", table("RDC11+RYC11")},
	{"tableVII", table("RDX11+RYX11")},
	{"fig5a", figure(experiments.AxisRequests, "revenue")},
	{"fig5b", figure(experiments.AxisRequests, "response")},
	{"fig5c", figure(experiments.AxisRequests, "memory")},
	{"fig5d", figure(experiments.AxisRequests, "acceptance")},
	{"fig5e", figure(experiments.AxisWorkers, "revenue")},
	{"fig5f", figure(experiments.AxisWorkers, "response")},
	{"fig5g", figure(experiments.AxisWorkers, "memory")},
	{"fig5h", figure(experiments.AxisWorkers, "acceptance")},
	{"fig5i", figure(experiments.AxisRadius, "revenue")},
	{"fig5j", figure(experiments.AxisRadius, "response")},
	{"fig5k", figure(experiments.AxisRadius, "memory")},
	{"fig5l", figure(experiments.AxisRadius, "acceptance")},
	{"cr", func(s *session) error {
		return s.show(experiments.RunCompetitiveRatio(experiments.CROptions{Seed: s.seed, Runner: s.runner}))
	}},
	{"ablations", func(s *session) error { return s.show(experiments.RunAblations(s.grid())) }},
	{"roadnet", func(s *session) error {
		return s.show(experiments.RunRoadNet(experiments.RoadNetOptions{Grid: s.grid()}))
	}},
	{"valuedist", func(s *session) error { return s.show(experiments.RunValueDist(s.grid())) }},
	{"platforms", func(s *session) error {
		return s.show(experiments.RunPlatformCount(experiments.PlatformCountOptions{Grid: s.grid()}))
	}},
	{"variance", func(s *session) error {
		g := experiments.Grid{Seed: s.seed, Runner: s.runner}
		if s.repeatsSet {
			g.Repeats = s.repeats
		}
		return s.show(experiments.RunVariance(g))
	}},
	{"faults", func(s *session) error {
		return s.show(experiments.RunFaultSweep(experiments.FaultSweepOptions{Grid: s.grid(), FaultSeed: s.faultSeed}))
	}},
	{"window", func(s *session) error {
		return s.show(experiments.RunWindow(experiments.WindowOptions{Grid: s.grid(), Windows: s.windows, Deadline: s.batchDeadline}))
	}},
	{scalingID, func(s *session) error {
		return s.show(experiments.RunScaling(experiments.ScalingOptions{Seed: s.seed, Workers: s.city}))
	}},
}

// scalingID is the one experiment `-exp all` leaves out: its runs each
// own the machine and its default cities take minutes.
const scalingID = "scaling"

// experimentIDs lists the table's ids in order, then "all".
func experimentIDs() []string {
	ids := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		ids = append(ids, e.id)
	}
	return append(ids, "all")
}

// expHelp is the -exp flag's usage line.
func expHelp() string {
	return "experiment id (" + strings.Join(experimentIDs(), ", ") + ")"
}

// selected returns the rows `-exp exp` runs: the row of that id, or for
// "all" every row but scaling; none for an unknown id.
func selected(exp string) []experiment {
	var rows []experiment
	for _, e := range experimentTable {
		if e.id == exp || (exp == "all" && e.id != scalingID) {
			rows = append(rows, e)
		}
	}
	return rows
}

// grid is the workload every synthetic experiment takes from the flags:
// defaults but for the seed, the repeats and the runner.
func (s *session) grid() experiments.Grid {
	return experiments.Grid{Seed: s.seed, Repeats: s.repeats, Runner: s.runner}
}

func (s *session) render(t *stats.Table) error {
	var err error
	if s.csv {
		err = t.RenderCSV(s.w)
	} else {
		err = t.Render(s.w)
	}
	if err == nil {
		_, err = fmt.Fprintln(s.w)
	}
	return err
}

// show renders an experiment's result table and, in text mode, the note
// a result may carry on how to read it.
func (s *session) show(res interface{ Table() *stats.Table }, err error) error {
	if err != nil {
		return err
	}
	if err := s.render(res.Table()); err != nil {
		return err
	}
	if noted, ok := res.(interface{ WriteNote(io.Writer) error }); ok && !s.csv {
		if err := noted.WriteNote(s.w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(s.w)
	}
	return err
}

func table(preset string) func(*session) error {
	return func(s *session) error {
		p, err := workload.PresetFor(preset)
		if err != nil {
			return err
		}
		return s.show(experiments.RunTable(p, experiments.TableOptions{
			Scale: s.scale, Seed: s.seed, Repeats: s.repeats, Runner: s.runner,
		}))
	}
}

func figure(axis experiments.SweepAxis, metric string) func(*session) error {
	return func(s *session) error {
		sweep, ok := s.sweeps[axis]
		if !ok {
			var err error
			sweep, err = experiments.RunSweep(axis, experiments.SweepOptions{
				Seed: s.seed, Repeats: s.repeats, ScaleCap: s.cap, Runner: s.runner,
			})
			if err != nil {
				return err
			}
			s.sweeps[axis] = sweep
		}
		rev, resp, mem, acc := sweep.Series()
		var t *stats.Table
		var series *stats.Series
		switch metric {
		case "revenue":
			t, series = rev.Table(1), rev
		case "response":
			t, series = resp.Table(3), resp
		case "memory":
			t, series = mem.Table(2), mem
		case "acceptance":
			t, series = acc.Table(3), acc
		}
		if err := s.render(t); err != nil {
			return err
		}
		if s.plot && !s.csv {
			if err := series.Plot(s.w, 64, 14); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(s.w); err != nil {
				return err
			}
		}
		return nil
	}
}

// run executes experiment exp — one id of experimentTable, or "all" —
// writing its tables to w.
func run(w io.Writer, exp string, p params) error {
	if p.scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", p.scale)
	}
	if p.repeats <= 0 {
		return fmt.Errorf("-repeats must be positive, got %d", p.repeats)
	}
	rows := selected(exp)
	if len(rows) == 0 {
		return fmt.Errorf("%s: unknown experiment %q (want one of %s)", exp, exp, strings.Join(experimentIDs(), ", "))
	}
	s := &session{params: p, w: w, sweeps: map[experiments.SweepAxis]*experiments.SweepResult{}}
	for _, e := range rows {
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return nil
}
