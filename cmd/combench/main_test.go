package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/experiments"
	"crossmatch/internal/metrics"
	"crossmatch/internal/trace"
)

// sequential runs unit runs inline, one at a time.
func sequential() *experiments.Runner { return &experiments.Runner{Parallelism: 1} }

func TestRunCollectsMetrics(t *testing.T) {
	var buf bytes.Buffer
	runner := &experiments.Runner{Parallelism: 1, Metrics: metrics.New()}
	if err := run(&buf, "tableVII", params{scale: 0.003, seed: 7, repeats: 1, runner: runner}); err != nil {
		t.Fatal(err)
	}
	rep := runner.Metrics.Snapshot()
	if rep.Counters.Runs == 0 {
		t.Error("metrics recorded no runs")
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"runs", "inner_matches", "latencies"} {
		if !strings.Contains(js.String(), key) {
			t.Errorf("metrics JSON missing %q:\n%s", key, js.String())
		}
	}
}

func TestRunSingleTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "tableVII", params{scale: 0.003, seed: 7, repeats: 1, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RDX11+RYX11", "OFF", "TOTA", "DemCOM", "RamCOM", "AcpRt"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFigureSharesSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig5i", params{scale: 0.01, seed: 7, repeats: 1, cap: 1.0, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "fig5l", params{scale: 0.01, seed: 7, repeats: 1, cap: 1.0, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Total revenue") || !strings.Contains(out, "Acceptance ratio") {
		t.Errorf("figure outputs missing:\n%s", out)
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig5i", params{scale: 0.01, seed: 7, repeats: 1, cap: 0.5, csv: true, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rad,TOTA,DemCOM,RamCOM") {
		t.Errorf("CSV header missing:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "tableIX", params{scale: 0.01, seed: 7, repeats: 1, runner: sequential()}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentTable: the -exp help text, `all` and the unknown-id error
// are three readings of one table. Every id the help text offers selects
// rows to run; `all` is every row but scaling, in table order — so
// TestGoldenAll, which runs `all` and then `scaling`, executes every id.
func TestExperimentTable(t *testing.T) {
	help := expHelp()
	ids := strings.Split(help[strings.Index(help, "(")+1:strings.LastIndex(help, ")")], ", ")
	if len(ids) != len(experimentTable)+1 || ids[len(ids)-1] != "all" {
		t.Fatalf("help lists %d ids ending in %q, want the table's %d and all", len(ids), ids[len(ids)-1], len(experimentTable))
	}
	for _, want := range []string{"tableV", "fig5l", "faults", "window", "scaling"} {
		if !strings.Contains(help, want+", ") {
			t.Errorf("help text omits %q: %s", want, help)
		}
	}
	var all []string
	for _, id := range ids[:len(ids)-1] {
		rows := selected(id)
		if len(rows) != 1 || rows[0].id != id {
			t.Errorf("-exp %s selects %d rows", id, len(rows))
		}
		if id != scalingID {
			all = append(all, id)
		}
	}
	var got []string
	for _, e := range selected("all") {
		got = append(got, e.id)
	}
	if strings.Join(got, " ") != strings.Join(all, " ") {
		t.Errorf("all runs %v, want the table minus scaling %v", got, all)
	}
	err := run(io.Discard, "tableIX", params{scale: 0.01, seed: 7, repeats: 1, runner: sequential()})
	if err == nil || !strings.Contains(err.Error(), strings.Join(ids, ", ")) {
		t.Errorf("unknown-id error %v does not list the ids", err)
	}
}

// Non-positive -scale / -repeats used to run silently at the defaults.
func TestRunRejectsNonPositiveScaleAndRepeats(t *testing.T) {
	for _, tc := range []struct {
		p    params
		want string
	}{
		{params{scale: 0, repeats: 1}, "-scale must be positive, got 0"},
		{params{scale: -1, repeats: 1}, "-scale must be positive, got -1"},
		{params{scale: 0.01, repeats: 0}, "-repeats must be positive, got 0"},
	} {
		tc.p.runner = sequential()
		err := run(io.Discard, "tableVII", tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("params %+v: error %v, want one containing %q", tc.p, err, tc.want)
		}
	}
}

// The variance study measures 12 seeds unless -repeats was given; it
// used to ignore the flag altogether.
func TestRunVarianceHonoursExplicitRepeats(t *testing.T) {
	for _, tc := range []struct {
		set  bool
		want string
	}{
		{false, "over 12 seeds"},
		{true, "over 2 seeds"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, "variance", params{scale: 0.01, seed: 7, repeats: 2, repeatsSet: tc.set, runner: sequential()}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("repeatsSet=%v: output lacks %q:\n%s", tc.set, tc.want, buf.String())
		}
	}
}

func TestRunCR(t *testing.T) {
	var buf bytes.Buffer
	// CROptions defaults are too heavy for a unit test; the cr path is
	// covered via the experiments package tests. Here just ensure the
	// ablations path wires through.
	if err := run(&buf, "ablations", params{scale: 0.01, seed: 7, repeats: 1, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "oracle") {
		t.Error("ablation table missing")
	}
}

func TestRunPlotMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig5i", params{scale: 0.01, seed: 7, repeats: 1, cap: 1.0, plot: true, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* TOTA") || !strings.Contains(out, "(rad)") {
		t.Errorf("plot output missing chart:\n%s", out)
	}
}

func TestParseWindows(t *testing.T) {
	ws, err := parseWindows(" 5, 25 ", 10)
	if err != nil || len(ws) != 2 || ws[0] != 5 || ws[1] != 25 {
		t.Fatalf("parseWindows(\" 5, 25 \") = %v, %v", ws, err)
	}
	if ws, err := parseWindows("", 0); err != nil || ws != nil {
		t.Fatalf("empty spec: %v, %v", ws, err)
	}
	for _, bad := range []string{"0", "-3", "five", "5,,10"} {
		if _, err := parseWindows(bad, 0); err == nil {
			t.Errorf("parseWindows(%q) accepted", bad)
		}
	}
	if _, err := parseWindows("5", -1); err == nil {
		t.Error("negative deadline accepted")
	}
}

func TestRunWindowExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "window", params{scale: 0.01, seed: 7, repeats: 1, windows: []core.Time{2}, batchDeadline: 1, runner: sequential()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BatchCOM window sweep", "DemCOM", "Bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("window output missing %q:\n%s", want, out)
		}
	}
}

func TestValidateFaultFlags(t *testing.T) {
	cases := []struct {
		name     string
		spec     string
		seed     int64
		wantErr  string
		wantPlan bool
	}{
		{name: "no flags", wantPlan: false},
		{name: "plain plan", spec: "drop=0.2", wantPlan: true},
		{name: "seed threads into plan", spec: "drop=0.2", seed: 77, wantPlan: true},
		{name: "fault-seed without faults", seed: 7, wantErr: "-fault-seed requires -faults"},
		{name: "unknown key", spec: "latnecy=0.2", wantErr: "unknown fault-plan key"},
		{name: "malformed rate", spec: "drop=high", wantErr: "drop"},
		{name: "outage plan", spec: "outage=2@100-300", wantPlan: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := validateFaultFlags(tc.spec, tc.seed)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got plan %v", tc.wantErr, plan)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (plan != nil) != tc.wantPlan {
				t.Fatalf("plan = %v, wantPlan = %v", plan, tc.wantPlan)
			}
			if plan != nil && plan.Seed != tc.seed {
				t.Errorf("plan seed %d, want %d", plan.Seed, tc.seed)
			}
		})
	}
}

func TestValidateTraceFlags(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		on       bool
		out      string
		sample   float64
		capacity int
		wantErr  string
	}{
		{name: "no flags"},
		{name: "defaults", on: true},
		{name: "sampled with a cap", on: true, sample: 0.3, capacity: 10},
		{name: "full rate", on: true, sample: 1},
		{name: "out without trace", out: "t.jsonl", wantErr: "-trace-out requires -trace"},
		{name: "sample without trace", sample: 0.5, wantErr: "-trace-sample requires -trace"},
		{name: "NaN sample without trace", sample: nan, wantErr: "-trace-sample requires -trace"},
		{name: "cap without trace", capacity: 5, wantErr: "-trace-cap requires -trace"},
		{name: "NaN sample", on: true, sample: nan, wantErr: "-trace-sample"},
		{name: "negative sample", on: true, sample: -1, wantErr: "-trace-sample"},
		{name: "sample above one", on: true, sample: 5, wantErr: "-trace-sample"},
		{name: "negative cap", on: true, capacity: -3, wantErr: "-trace-cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tracer, err := validateTraceFlags(tc.on, tc.out, tc.sample, tc.capacity)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got tracer %v", tc.wantErr, tracer)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (tracer != nil) != tc.on {
				t.Fatalf("tracer = %v, want one iff -trace", tracer)
			}
		})
	}
}

// TestRunTraceWritesBothFormats drives -trace end to end: a traced
// table run, the report, and the span file in both export formats.
func TestRunTraceWritesBothFormats(t *testing.T) {
	tracer, err := validateTraceFlags(true, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	runner := &experiments.Runner{Parallelism: 1, Trace: tracer}
	var buf bytes.Buffer
	if err := run(&buf, "tableVII", params{scale: 0.003, seed: 7, repeats: 1, runner: runner}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonl, chrome := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "spans.json")
	for _, out := range []string{jsonl, chrome} {
		buf.Reset()
		if err := finishTrace(&buf, tracer, out, false); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "Decision stage latencies") {
			t.Fatalf("no stage-latency report:\n%s", buf.String())
		}
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decisions, stages := 0, 0
	platforms := map[int32]bool{}
	for dec := json.NewDecoder(f); dec.More(); {
		var sp trace.Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		decisions++
		stages += len(sp.Stages)
		platforms[sp.Platform] = true
	}
	if decisions == 0 || decisions != len(tracer.Spans()) {
		t.Fatalf("JSONL holds %d spans, tracer retains %d", decisions, len(tracer.Spans()))
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	if want := decisions + stages + len(platforms); len(doc.TraceEvents) != want {
		t.Errorf("Chrome trace has %d events, want %d decisions + %d stages + %d metadata",
			len(doc.TraceEvents), decisions, stages, len(platforms))
	}
}

func TestRunFaultSweepExperiment(t *testing.T) {
	var buf bytes.Buffer
	// A tiny sweep: two rates, one repeat. The zero-fault anchor row is
	// prepended by the harness itself.
	res, err := experiments.RunFaultSweep(experiments.FaultSweepOptions{
		Rates: []float64{0, 1},
		Grid:  experiments.Grid{Requests: 200, Workers: 60, Repeats: 1, Seed: 7, Runner: sequential()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fault rate", "Rev vs 0", "Brk opened", "TOTA", "DemCOM", "RamCOM"} {
		if !strings.Contains(out, want) {
			t.Errorf("fault sweep table missing %q:\n%s", want, out)
		}
	}
	// TOTA never touches the hub: its revenue must be fault-immune.
	base, _ := res.Row(0, "TOTA")
	worst, _ := res.Row(1, "TOTA")
	if base.Revenue != worst.Revenue {
		t.Errorf("TOTA revenue moved under faults: %.4f -> %.4f", base.Revenue, worst.Revenue)
	}
	// Fully faulted COM must not beat its own fault-free baseline.
	dBase, _ := res.Row(0, "DemCOM")
	dWorst, _ := res.Row(1, "DemCOM")
	if dWorst.Revenue > dBase.Revenue {
		t.Errorf("DemCOM revenue rose under total fault load: %.4f -> %.4f", dBase.Revenue, dWorst.Revenue)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/all.golden.csv from this run")

// maskMeasurements blanks the cells that report the host rather than the
// algorithms — wall-clock and live-heap columns, and the sweep series
// made only of them — so the rest of a CSV run compares byte for byte.
func maskMeasurements(t *testing.T, out string) string {
	t.Helper()
	hostColumns := map[string]bool{
		"Response Time (ms)": true, "Memory (MB)": true,
		"Gen ms": true, "Run ms": true, "Events/s": true,
	}
	var b strings.Builder
	for _, block := range strings.Split(strings.TrimRight(out, "\n"), "\n\n") {
		lines := strings.Split(block, "\n")
		b.WriteString(lines[0] + "\n")
		hostSeries := strings.HasSuffix(lines[0], "— Response time (ms)") || strings.HasSuffix(lines[0], "— Memory (MB)")
		var masked []bool
		w := csv.NewWriter(&b)
		for li, line := range lines[1:] {
			rec, err := csv.NewReader(strings.NewReader(line)).Read()
			if err != nil {
				t.Fatalf("unparseable CSV line %q: %v", line, err)
			}
			if li == 0 {
				masked = make([]bool, len(rec))
				for i, name := range rec {
					masked[i] = hostColumns[name] || (hostSeries && i > 0)
				}
			} else {
				for i := range rec {
					if masked[i] {
						rec[i] = "~"
					}
				}
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		b.WriteString("\n")
	}
	return b.String()
}

// TestGoldenAll pins the output of every experiment id — `-exp all`,
// then `-exp scaling` on one small city — at `-scale 0.01 -repeats 1
// -seed 42 -cap 5000 -csv`, measurement cells masked (the cap keeps the
// test inside 45 s under -race; the uncapped axes spend two thirds of
// the run on their 10k-100k points). `go test ./cmd/combench -run
// TestGoldenAll -update` rewrites the file; a change that moves it on
// purpose must say so.
func TestGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", params{scale: 0.01, seed: 42, repeats: 1, cap: 5000, csv: true, runner: &experiments.Runner{}}); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "scaling", params{scale: 0.01, seed: 42, repeats: 1, csv: true, city: []int{400}, runner: &experiments.Runner{}}); err != nil {
		t.Fatal(err)
	}
	got := maskMeasurements(t, buf.String())
	const path = "testdata/all.golden.csv"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
}
