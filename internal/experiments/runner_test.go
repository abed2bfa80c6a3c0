package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"crossmatch/internal/metrics"
	"crossmatch/internal/workload"
)

// zeroMeasurements clears the fields that measure the host rather than
// the algorithms — live heap and wall-clock latency — so results can be
// compared bit-for-bit across pool sizes.
func zeroMeasurements(res *TableResult) {
	for i := range res.Rows {
		res.Rows[i].MemoryMB = 0
		res.Rows[i].ResponseMs = 0
	}
}

// TestRunTableDeterministicAcrossPoolSizes is the runner's core
// guarantee: a parallel table run is bit-for-bit identical to the
// sequential one for a fixed seed, because every unit run derives its
// randomness from its own coordinates and results aggregate in
// submission order.
func TestRunTableDeterministicAcrossPoolSizes(t *testing.T) {
	p, err := workload.PresetFor("RDX11+RYX11")
	if err != nil {
		t.Fatal(err)
	}
	base := TableOptions{Scale: 0.002, Seed: 7, Repeats: 2}

	seqOpts := base
	seqOpts.Runner = &Runner{Parallelism: 1}
	seq, err := RunTable(p, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	zeroMeasurements(seq)

	for _, workers := range []int{2, 5} {
		parOpts := base
		parOpts.Runner = &Runner{Parallelism: workers}
		par, err := RunTable(p, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		zeroMeasurements(par)
		if !reflect.DeepEqual(seq.Rows, par.Rows) {
			t.Errorf("parallelism=%d rows diverge:\nseq: %+v\npar: %+v",
				workers, seq.Rows, par.Rows)
		}
	}
}

// TestRunSweepDeterministicAcrossPoolSizes repeats the guarantee on the
// sweep harness, whose jobs regenerate streams inside the pool.
func TestRunSweepDeterministicAcrossPoolSizes(t *testing.T) {
	base := SweepOptions{Seed: 11, Repeats: 2, ScaleCap: 0.5}

	run := func(workers int) (*SweepResult, error) {
		o := base
		o.Runner = &Runner{Parallelism: workers}
		return RunSweep(AxisRadius, o)
	}
	seq, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range seq.Algos {
		for i := range seq.Points[algo] {
			a, b := seq.Points[algo][i], par.Points[algo][i]
			a.MemoryMB, b.MemoryMB = 0, 0
			a.ResponseMs, b.ResponseMs = 0, 0
			if a != b {
				t.Errorf("%s point %d diverges: seq %+v par %+v", algo, i, a, b)
			}
		}
	}
}

// TestRunnerSharedMetrics checks a collector shared by a parallel run
// tallies without racing (the -race build is the real assertion) and
// that unit-run totals are pool-size independent.
func TestRunnerSharedMetrics(t *testing.T) {
	counts := make([]int64, 2)
	for i, workers := range []int{1, 4} {
		r := &Runner{Parallelism: workers, Metrics: metrics.New()}
		if _, err := RunAblations(Grid{
			Requests: 200, Workers: 40, Repeats: 2, Seed: 3, Runner: r,
		}); err != nil {
			t.Fatal(err)
		}
		rep := r.Metrics.Snapshot()
		if rep.Counters.Runs == 0 || rep.Counters.InnerMatches == 0 {
			t.Fatalf("workers=%d metrics empty: %+v", workers, rep.Counters)
		}
		counts[i] = rep.Counters.InnerMatches
	}
	if counts[0] != counts[1] {
		t.Errorf("inner matches differ across pool sizes: %d vs %d", counts[0], counts[1])
	}
}

// TestRunnerLeavesNoGoroutines verifies the pool drains fully: after a
// parallel run returns, the goroutine count settles back to baseline.
func TestRunnerLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := &Runner{Parallelism: 8}
	if _, err := RunValueDist(Grid{
		Requests: 150, Workers: 30, Repeats: 1, Seed: 5, Runner: r,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
