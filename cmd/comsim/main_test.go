package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossmatch/internal/workload"
)

func TestRunSynthetic(t *testing.T) {
	var buf bytes.Buffer
	o := options{alg: "DemCOM", requests: 150, workers: 30, rad: 1.0, dist: "real", seed: 7}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DemCOM over", "Platform", "total revenue"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithOffBound(t *testing.T) {
	var buf bytes.Buffer
	o := options{alg: "TOTA", requests: 100, workers: 20, rad: 1.0, dist: "real", seed: 7, withOff: true}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "OFF upper bound") {
		t.Error("OFF bound missing")
	}
}

func TestRunPreset(t *testing.T) {
	var buf bytes.Buffer
	o := options{alg: "RamCOM", preset: "RDC11+RYC11", scale: 0.002, seed: 7}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RamCOM over") {
		t.Error("header missing")
	}
}

func TestRunFromCSV(t *testing.T) {
	cfg, err := workload.Synthetic(80, 16, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(f, stream); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run(&buf, options{alg: "TOTA", in: path, seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "80 requests") {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{alg: "Nope", requests: 10, workers: 5, rad: 1, dist: "real"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&buf, options{alg: "TOTA", preset: "Nope"}); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run(&buf, options{alg: "TOTA", in: "/does/not/exist.csv"}); err == nil || !strings.Contains(err.Error(), "/does/not/exist.csv") {
		t.Errorf("missing CSV: err = %v, want one naming the path", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,stream\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, options{alg: "TOTA", in: bad}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("unreadable CSV: err = %v, want one naming the path", err)
	}
	if err := run(&buf, options{alg: "TOTA", requests: 10, workers: 5, rad: 1, dist: "weird"}); err == nil {
		t.Error("bad distribution accepted")
	}
}

func TestRunNoCoopFlag(t *testing.T) {
	var coop, noCoop bytes.Buffer
	base := options{alg: "DemCOM", requests: 200, workers: 30, rad: 1.0, dist: "real", seed: 5}
	if err := run(&coop, base); err != nil {
		t.Fatal(err)
	}
	nc := base
	nc.noCoop = true
	if err := run(&noCoop, nc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(noCoop.String(), "cooperative: 0") {
		t.Errorf("nocoop run still cooperated:\n%s", noCoop.String())
	}
}

func TestRunEnsembleFlag(t *testing.T) {
	var buf bytes.Buffer
	o := options{alg: "RamCOM", requests: 200, workers: 40, rad: 1.0, dist: "real", seed: 3, ensemble: 4, withOff: true}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RamCOM over 4 seeds", "revenue", "OFF upper bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("ensemble output missing %q:\n%s", want, out)
		}
	}
}

// TestGoldenEnsemble pins `comsim -alg DemCOM -ensemble 4` at the flag
// defaults, byte for byte: the line carries no wall-clock figure.
func TestGoldenEnsemble(t *testing.T) {
	var buf bytes.Buffer
	o := options{alg: "DemCOM", requests: 2500, workers: 500, rad: 1.0, dist: "real", scale: 0.05, seed: 42, ensemble: 4}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ensemble_demcom.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("ensemble line moved:\n got: %swant: %s", buf.String(), want)
	}
}
