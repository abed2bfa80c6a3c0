package experiments

import "testing"

// TestRunScalingSmoke runs a miniature sweep end to end: every city
// size present, events 10x workers, nonzero service.
func TestRunScalingSmoke(t *testing.T) {
	res, err := RunScaling(ScalingOptions{
		Workers: []int{400, 800},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Events != row.Workers*10 {
			t.Errorf("workers=%d: %d events, want 10x", row.Workers, row.Events)
		}
		if row.Served == 0 || row.Revenue <= 0 {
			t.Errorf("workers=%d: empty result (%d served, revenue %v)", row.Workers, row.Served, row.Revenue)
		}
	}
	if res.Rows[0].Workers != 400 || res.Rows[1].Workers != 800 {
		t.Errorf("rows are for %d and %d workers, want 400 and 800", res.Rows[0].Workers, res.Rows[1].Workers)
	}
	if res.Table() == nil {
		t.Fatal("nil table")
	}
}
