package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateSyntheticCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 100, 20, 1.0, "real", "", 0.05, 7, "", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,id,arrival,platform") {
		t.Errorf("missing CSV header: %.80s", out)
	}
	if n := strings.Count(out, "\nrequest,"); n != 100 {
		t.Errorf("request rows = %d, want 100", n)
	}
}

func TestGeneratePresetCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, 1.0, "real", "RDX11+RYX11", 0.002, 7, "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worker,") {
		t.Error("no worker rows")
	}
}

func TestGenerateErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 10, 10, 1.0, "real", "NOPE", 0.05, 7, "", false); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run(&buf, 10, 10, -1, "real", "", 0.05, 7, "", false); err == nil {
		t.Error("negative radius accepted")
	}
	if err := run(&buf, 10, 10, 1, "real", "", 0.05, 7, "/does/not/exist.csv", false); err == nil || !strings.Contains(err.Error(), "/does/not/exist.csv") {
		t.Errorf("missing summarize file: err = %v, want one naming the path", err)
	}
}

func TestSummarizeRoundTrip(t *testing.T) {
	var gen bytes.Buffer
	if err := run(&gen, 50, 10, 1.0, "normal", "", 0.05, 9, "", false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := os.WriteFile(path, gen.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := run(&sum, 0, 0, 0, "", "", 0, 0, path, true); err != nil {
		t.Fatal(err)
	}
	out := sum.String()
	for _, want := range []string{"50 requests", "platform 1", "platform 2", "value: mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
