package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/workload"
)

func ensembleConfig(t *testing.T) workload.Config {
	t.Helper()
	cfg, err := workload.Synthetic(300, 60, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The three TestRunEnsemble* tests pin the fan-out contract that
// platform.RunEnsemble carried until the grid kernel took it over:
// results in seed order on any pool size, errors that name their seed,
// a clamped pool, empty input rejected.

func TestRunEnsembleMatchesSequential(t *testing.T) {
	cfg := ensembleConfig(t)
	p := plan{runner: &Runner{Parallelism: 4}, seed: 1, stride: 1, repeats: 6}
	par, _, err := simulateGrid(p, []cell{{label: "ensemble", workload: cfg, spec: platform.Spec{Algorithm: platform.AlgDemCOM}}})
	if err != nil {
		t.Fatal(err)
	}
	factory, err := platform.FactoryConfigured(platform.AlgDemCOM, platform.AlgConfig{MaxValue: cfg.MaxValue()})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []int64{1, 2, 3, 4, 5, 6} {
		stream, err := workload.Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := platform.Run(stream, factory, platform.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if par[0][i].TotalRevenue() != seq.TotalRevenue() || par[0][i].TotalServed() != seq.TotalServed() {
			t.Errorf("seed %d: parallel (%v, %d) != sequential (%v, %d)",
				seed, par[0][i].TotalRevenue(), par[0][i].TotalServed(), seq.TotalRevenue(), seq.TotalServed())
		}
	}
}

func TestRunEnsembleValidation(t *testing.T) {
	cfg := ensembleConfig(t)
	stream, err := workload.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := platform.Spec{Algorithm: platform.AlgTOTA, Seed: 1}
	if _, err := RunEnsemble(nil, spec, 1); err == nil {
		t.Error("nil stream accepted")
	}
	if _, err := RunEnsemble(stream, platform.Spec{Seed: 1}, 1); !errors.Is(err, platform.ErrUnknownAlgorithm) {
		t.Errorf("a spec naming no algorithm: %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := RunEnsemble(stream, spec, 0); err == nil {
		t.Error("no seeds accepted")
	}
	if _, _, err := simulateGrid(plan{repeats: 1}, nil); err == nil {
		t.Error("no cells accepted")
	}
	// Errors propagate with seed context, lowest failing seed first,
	// whether the unit's set-up or its measurement fails.
	boom := errors.New("boom")
	p := plan{runner: &Runner{Parallelism: 2}, seed: 1, stride: 1, repeats: 3}
	_, err = runGrid(p, []cell{{label: "bad", workload: cfg}}, func(_ int, u unit) (int, error) {
		if u.cfg.Seed >= 2 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad seed 2") {
		t.Errorf("measurement error = %v, want boom naming seed 2", err)
	}
	_, _, err = simulateGrid(p, []cell{{label: "empty", spec: platform.Spec{Algorithm: platform.AlgTOTA}}})
	if err == nil || !strings.Contains(err.Error(), "empty seed 1") {
		t.Errorf("generator error = %v, want one naming seed 1", err)
	}
	_, _, err = simulateGrid(p, []cell{{label: "magik", workload: cfg, spec: platform.Spec{Algorithm: "Magik"}}})
	if !errors.Is(err, platform.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm error = %v", err)
	}
}

func TestRunEnsembleParallelismClamped(t *testing.T) {
	cfg := ensembleConfig(t)
	// parallelism larger than the unit count and non-positive both work.
	for _, par := range []int{-1, 0, 100} {
		p := plan{runner: &Runner{Parallelism: par}, seed: 7, stride: 1, repeats: 2}
		res, _, err := simulateGrid(p, []cell{{label: "ensemble", workload: cfg, spec: platform.Spec{Algorithm: platform.AlgTOTA}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || len(res[0]) != 2 || res[0][0] == nil || res[0][1] == nil {
			t.Fatalf("parallelism %d: results %v", par, res)
		}
	}
}

// TestGridDeterministicAcrossPoolSizes extends the guarantee
// TestRunTableDeterministicAcrossPoolSizes and
// TestRunSweepDeterministicAcrossPoolSizes state for two of the kernel's
// nine users to the other seven: every row of every experiment is
// bit-identical (reflect.DeepEqual compares floats with ==) whether the
// unit runs go one at a time or four at once. None of these rows has a
// wall-clock or heap field.
func TestGridDeterministicAcrossPoolSizes(t *testing.T) {
	g := func(r *Runner) Grid { return Grid{Requests: 240, Workers: 60, Repeats: 2, Seed: 19, Runner: r} }
	experiments := []struct {
		name string
		rows func(r *Runner) (any, error)
	}{
		{"ablation", func(r *Runner) (any, error) {
			res, err := RunAblations(g(r))
			return res.Rows, err
		}},
		{"roadnet", func(r *Runner) (any, error) {
			res, err := RunRoadNet(RoadNetOptions{Grid: g(r)})
			return res.Rows, err
		}},
		{"valuedist", func(r *Runner) (any, error) {
			res, err := RunValueDist(g(r))
			return res.Rows, err
		}},
		{"platforms", func(r *Runner) (any, error) {
			res, err := RunPlatformCount(PlatformCountOptions{Grid: g(r), Counts: []int{2, 3}})
			return res.Rows, err
		}},
		{"variance", func(r *Runner) (any, error) {
			res, err := RunVariance(g(r))
			return res.Rows, err
		}},
		{"faults", func(r *Runner) (any, error) {
			res, err := RunFaultSweep(FaultSweepOptions{Grid: g(r), Rates: []float64{0, 0.5}})
			return res.Rows, err
		}},
		{"window", func(r *Runner) (any, error) {
			res, err := RunWindow(WindowOptions{Grid: g(r), Windows: []core.Time{2, 8}, Deadline: 5})
			return res.Rows, err
		}},
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			seq, err := e.rows(&Runner{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.rows(&Runner{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("rows diverge across pool sizes:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// TestFaultSweepFeedsSharedCollector: the study reads each unit run's
// resilience counters from a collector of that run's own, and the
// runner's shared collector — what `combench -exp faults -metrics`
// reports — must still see every unit run.
func TestFaultSweepFeedsSharedCollector(t *testing.T) {
	shared := metrics.New()
	opts := FaultSweepOptions{
		Grid:  Grid{Requests: 240, Workers: 60, Repeats: 2, Seed: 19, Runner: &Runner{Parallelism: 2, Metrics: shared}},
		Rates: []float64{0, 0.5},
	}
	res, err := RunFaultSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	retries := 0.0
	for _, row := range res.Rows {
		retries += row.Retries * float64(opts.Repeats)
	}
	if retries == 0 {
		t.Fatal("no retries at fault rate 0.5: the test would prove nothing")
	}
	c := shared.Snapshot().Counters
	if want := int64(len(res.Rows) * opts.Repeats); c.Runs != want {
		t.Errorf("shared collector saw %d runs, want %d (rows x repeats)", c.Runs, want)
	}
	if c.ProbeRetries != int64(math.Round(retries)) {
		t.Errorf("shared collector saw %d probe retries, rows sum to %v", c.ProbeRetries, retries)
	}
}
