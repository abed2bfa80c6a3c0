package experiments

import (
	"math"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
)

func TestRunWindowSweep(t *testing.T) {
	opts := WindowOptions{Grid: Grid{Requests: 300, Workers: 120, Repeats: 2, Seed: 11},
		Windows: []core.Time{2, 8}, Deadline: 5}
	res, err := RunWindow(opts)
	if err != nil {
		t.Fatalf("RunWindow: %v", err)
	}
	if len(res.Rows) != 3 { // DemCOM baseline + two windows
		t.Fatalf("rows: %d, want 3", len(res.Rows))
	}
	base, ok := res.Row(platform.AlgDemCOM, 0)
	if !ok || base.Revenue <= 0 {
		t.Fatalf("missing DemCOM baseline row: %+v", res.Rows)
	}
	if base.WaitMax != 0 {
		t.Fatalf("immediate dispatch with a non-zero wait: %+v", base)
	}
	for _, w := range opts.Windows {
		row, ok := res.Row(platform.AlgBatchCOM, w)
		if !ok {
			t.Fatalf("missing BatchCOM row for window %d", w)
		}
		want := waitBound(w, opts.Deadline)
		if row.Bound != want {
			t.Fatalf("window %d: bound %d, want min(window, deadline) = %d", w, row.Bound, want)
		}
		if row.WaitMax > float64(want) {
			t.Fatalf("window %d: max wait %.1f exceeds the %d-tick buffering guarantee",
				w, row.WaitMax, want)
		}
	}

	// The sweep is a pure function of its options: a second run must
	// reproduce every revenue bit for bit.
	again, err := RunWindow(opts)
	if err != nil {
		t.Fatalf("RunWindow (repeat): %v", err)
	}
	for i := range res.Rows {
		if res.Rows[i].Revenue != again.Rows[i].Revenue {
			t.Fatalf("row %d not deterministic: %v vs %v", i, res.Rows[i], again.Rows[i])
		}
	}
}

func TestWindowP99(t *testing.T) {
	if got := p99(nil); got != 0 {
		t.Fatalf("p99(nil) = %v", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := p99(xs); math.Abs(got-197) > 1 {
		t.Fatalf("p99 of 0..199 = %v, want ~198", got)
	}
}
