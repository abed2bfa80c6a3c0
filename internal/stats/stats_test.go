package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFormatCount(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{0, "0"}, {7, "7"}, {999, "999"}, {1000, "1,000"},
		{91321, "91,321"}, {100973, "100,973"}, {1234567, "1,234,567"},
		{-42, "-42"}, {-1234, "-1,234"},
	}
	for _, tt := range tests {
		if got := FormatCount(tt.n); got != tt.want {
			t.Errorf("FormatCount(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatFloat(1.7523, 3); got != "1.752" {
		t.Errorf("FormatFloat = %q", got)
	}
	if got := FormatMillis(430 * time.Microsecond); got != "0.43" {
		t.Errorf("FormatMillis = %q", got)
	}
}

func TestMemoryMB(t *testing.T) {
	m := MemoryMB()
	if m <= 0 || m > 100000 {
		t.Errorf("MemoryMB = %v, implausible", m)
	}
}

func TestMustNonNegative(t *testing.T) {
	MustNonNegative("ok", 0)
	MustNonNegative("ok", 5)
	defer func() {
		if recover() == nil {
			t.Error("negative value did not panic")
		}
	}()
	MustNonNegative("bad", -1)
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Results", "Methods", "Rev")
	tb.Add("OFF", "1.752")
	tb.Add("TOTA") // short row padded
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Results", "Methods", "Rev", "OFF", "1.752", "TOTA", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: "Methods" and "OFF" start at the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
}

func TestTableAddTooManyCellsPanics(t *testing.T) {
	tb := NewTable("", "A")
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	tb.Add("1", "2")
}

func TestTableRenderCSV(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.Add("x", "y")
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A,B") || !strings.Contains(out, "x,y") || !strings.Contains(out, "# T") {
		t.Errorf("CSV output wrong:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("Fig 5(a)", "|R|", "Revenue", []string{"500", "1000"})
	s.Set("TOTA", 0, 10)
	s.Set("TOTA", 1, 20)
	s.Set("DemCOM", 0, 12)
	if got := s.Lines(); len(got) != 2 || got[0] != "TOTA" || got[1] != "DemCOM" {
		t.Errorf("Lines = %v", got)
	}
	if y, ok := s.Get("TOTA", 1); !ok || y != 20 {
		t.Errorf("Get = %v, %v", y, ok)
	}
	if _, ok := s.Get("DemCOM", 1); ok {
		t.Error("unset point reported as set")
	}
	if _, ok := s.Get("RamCOM", 0); ok {
		t.Error("unknown line reported as set")
	}
	tb := s.Table(1)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 5(a)", "|R|", "TOTA", "DemCOM", "12.0", Dash} {
		if !strings.Contains(out, want) {
			t.Errorf("series table missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesSetOutOfRangePanics(t *testing.T) {
	s := NewSeries("t", "x", "y", []string{"1"})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Set did not panic")
		}
	}()
	s.Set("A", 5, 1)
}
