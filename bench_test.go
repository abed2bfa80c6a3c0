package crossmatch

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section V). Each iteration regenerates the experiment end to end at a
// bench-friendly scale; EXPERIMENTS.md records the scales used for the
// published reproduction and maps every benchmark to its paper artefact.
//
//	BenchmarkTableV    -> Table V   (RDC10+RYC10)
//	BenchmarkTableVI   -> Table VI  (RDC11+RYC11)
//	BenchmarkTableVII  -> Table VII (RDX11+RYX11)
//	BenchmarkFig5a..d  -> Fig. 5(a)-(d): revenue/response/memory/acceptance vs |R|
//	BenchmarkFig5e..h  -> Fig. 5(e)-(h): ... vs |W|
//	BenchmarkFig5i..l  -> Fig. 5(i)-(l): ... vs rad
//	BenchmarkCompetitiveRatio -> the CR_RO study (Definitions 2.7/2.8)
//	BenchmarkAblations -> DESIGN.md's design-choice ablations
//
// Full-scale reproductions are driven by cmd/combench, not the benches.

import (
	"context"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"crossmatch/internal/experiments"
	"crossmatch/internal/workload"
)

const (
	benchTableScale = 0.01
	benchSeed       = 42
)

func benchTable(b *testing.B, preset string) {
	b.Helper()
	p, err := workload.PresetFor(preset)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable(p, experiments.TableOptions{
			Scale: benchTableScale, Seed: benchSeed, Repeats: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, res)
	}
}

// reportTable surfaces the headline metrics of the last run as custom
// benchmark units so `go test -bench` output doubles as a result sheet.
func reportTable(b *testing.B, res *experiments.TableResult) {
	for _, row := range res.Rows {
		switch row.Method {
		case "OFF":
			b.ReportMetric(row.RevD+row.RevY, "OFF-rev")
		case "TOTA":
			b.ReportMetric(row.RevD+row.RevY, "TOTA-rev")
		case "DemCOM":
			b.ReportMetric(row.RevD+row.RevY, "DemCOM-rev")
		case "RamCOM":
			b.ReportMetric(row.RevD+row.RevY, "RamCOM-rev")
		}
	}
}

func BenchmarkTableV(b *testing.B)   { benchTable(b, "RDC10+RYC10") }
func BenchmarkTableVI(b *testing.B)  { benchTable(b, "RDC11+RYC11") }
func BenchmarkTableVII(b *testing.B) { benchTable(b, "RDX11+RYX11") }

// Sweeps are shared per axis across their four figures: Fig. 5(a)-(d)
// all come from the |R| sweep, etc. A sync.Once per axis keeps
// `go test -bench=.` from re-running the same sweep four times while
// still letting each figure be benchmarked individually.
var (
	sweepOnce   [3]sync.Once
	sweepCache  [3]*experiments.SweepResult
	sweepErrors [3]error
)

func benchSweep(b *testing.B, idx int, axis experiments.SweepAxis, cap float64, metric string) {
	b.Helper()
	run := func() (*experiments.SweepResult, error) {
		return experiments.RunSweep(axis, experiments.SweepOptions{
			Seed: benchSeed, Repeats: 1, ScaleCap: cap,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res *experiments.SweepResult
		var err error
		if i == 0 {
			sweepOnce[idx].Do(func() { sweepCache[idx], sweepErrors[idx] = run() })
			res, err = sweepCache[idx], sweepErrors[idx]
		} else {
			res, err = run()
		}
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Xs) - 1
		for _, algo := range res.Algos {
			p, ok := res.Get(algo, last)
			if !ok {
				b.Fatalf("missing point for %s", algo)
			}
			switch metric {
			case "revenue":
				b.ReportMetric(p.Revenue, algo+"-rev")
			case "response":
				b.ReportMetric(p.ResponseMs, algo+"-ms")
			case "memory":
				b.ReportMetric(p.MemoryMB, algo+"-MB")
			case "acceptance":
				b.ReportMetric(p.AcptRatio, algo+"-acp")
			}
		}
	}
}

const (
	benchCapR   = 5000
	benchCapW   = 1000
	benchCapRad = 1.5
)

func BenchmarkFig5a(b *testing.B) { benchSweep(b, 0, experiments.AxisRequests, benchCapR, "revenue") }
func BenchmarkFig5b(b *testing.B) { benchSweep(b, 0, experiments.AxisRequests, benchCapR, "response") }
func BenchmarkFig5c(b *testing.B) { benchSweep(b, 0, experiments.AxisRequests, benchCapR, "memory") }
func BenchmarkFig5d(b *testing.B) {
	benchSweep(b, 0, experiments.AxisRequests, benchCapR, "acceptance")
}
func BenchmarkFig5e(b *testing.B) { benchSweep(b, 1, experiments.AxisWorkers, benchCapW, "revenue") }
func BenchmarkFig5f(b *testing.B) { benchSweep(b, 1, experiments.AxisWorkers, benchCapW, "response") }
func BenchmarkFig5g(b *testing.B) { benchSweep(b, 1, experiments.AxisWorkers, benchCapW, "memory") }
func BenchmarkFig5h(b *testing.B) {
	benchSweep(b, 1, experiments.AxisWorkers, benchCapW, "acceptance")
}
func BenchmarkFig5i(b *testing.B) { benchSweep(b, 2, experiments.AxisRadius, benchCapRad, "revenue") }
func BenchmarkFig5j(b *testing.B) { benchSweep(b, 2, experiments.AxisRadius, benchCapRad, "response") }
func BenchmarkFig5k(b *testing.B) { benchSweep(b, 2, experiments.AxisRadius, benchCapRad, "memory") }
func BenchmarkFig5l(b *testing.B) {
	benchSweep(b, 2, experiments.AxisRadius, benchCapRad, "acceptance")
}

func BenchmarkCompetitiveRatio(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCompetitiveRatio(experiments.CROptions{
			Instances: 5, Orders: 4, Requests: 100, Workers: 30, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MinRatio["DemCOM"], "DemCOM-CR")
		b.ReportMetric(res.MinRatio["RamCOM"], "RamCOM-CR")
	}
}

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblations(experiments.Grid{
			Requests: 800, Workers: 160, Repeats: 1, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty ablation result")
		}
	}
}

// BenchmarkRoadNet measures the Section VII extension study: Euclidean
// vs shortest-path service ranges.
func BenchmarkRoadNet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRoadNet(experiments.RoadNetOptions{
			Grid: experiments.Grid{Requests: 600, Workers: 120, Repeats: 1, Seed: benchSeed},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("unexpected road-net result shape")
		}
	}
}

// BenchmarkValueDist measures the Table IV value-distribution factor
// study ({real, normal}).
func BenchmarkValueDist(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunValueDist(experiments.Grid{
			Requests: 800, Workers: 160, Repeats: 1, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("unexpected value-dist result shape")
		}
	}
}

// syntheticPreset wraps the Table IV synthetic defaults in a Preset so
// the harnesses that operate on presets can target them too.
var syntheticPreset = workload.Preset{Name: "SYN2500+500", City: "synthetic", R1: 1250, W1: 250, R2: 1250, W2: 250, Radius: 1.0}

// benchTableRunner measures RunTable end to end on the synthetic
// Table IV workload with a fixed pool size, so
// BenchmarkTableSequential vs BenchmarkTableParallel quantifies the
// concurrent experiment engine's speedup (they compute identical
// tables; see TestRunTableDeterministicAcrossPoolSizes).
func benchTableRunner(b *testing.B, parallelism int) {
	b.Helper()
	p := syntheticPreset
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable(p, experiments.TableOptions{
			Scale: 0.2, Seed: benchSeed, Repeats: 2,
			Runner: &experiments.Runner{Parallelism: parallelism},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, res)
	}
}

func BenchmarkTableSequential(b *testing.B) { benchTableRunner(b, 1) }
func BenchmarkTableParallel(b *testing.B)   { benchTableRunner(b, 0) }

// BenchmarkDecisionLatency isolates the per-request decision cost of
// each online matcher (the quantity behind the paper's "response time"
// columns), excluding stream generation.
func BenchmarkDecisionLatency(b *testing.B) {
	cfg, err := workload.Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.Generate(cfg, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []string{TOTA, DemCOM, RamCOM} {
		b.Run(alg, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateContext(context.Background(), stream, alg, WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlatformSequentialRuntime measures one six-platform
// simulation end to end, excluding stream generation.
func BenchmarkPlatformSequentialRuntime(b *testing.B) {
	cfg, err := workload.SyntheticMulti(6, 3000, 600, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.Generate(cfg, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SimulateContext(context.Background(), stream, DemCOM, WithSeed(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalRevenue(), "rev")
	}
}

// BenchmarkTraceOverhead prices the decision tracer on a DemCOM
// simulation: "off" is the production default (no tracer, every span
// call a nil-receiver no-op), "sampled" traces 10% of requests, "full"
// traces all of them. The off/full gap is the cost of stage timestamps
// and ring commits; off vs BenchmarkDecisionLatency history quantifies
// the nil-path instrumentation itself.
func BenchmarkTraceOverhead(b *testing.B) {
	cfg, err := workload.Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.Generate(cfg, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...Option) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all := append([]Option{WithSeed(benchSeed)}, opts...)
			if _, err := SimulateContext(context.Background(), stream, DemCOM, all...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("sampled", func(b *testing.B) {
		tr := NewTracer(TraceOptions{Sample: 0.1})
		run(b, WithTracer(tr))
	})
	b.Run("full", func(b *testing.B) {
		tr := NewTracer(TraceOptions{})
		run(b, WithTracer(tr))
	})
}

// TestDisabledTracerOverheadGuard asserts the tracing layer's core
// promise: with no tracer attached, the instrumented engine must run
// the table workload within 2% of a run that additionally carries a
// tracer in disabled-sampling mode — i.e. the disabled path is flag
// checks, not work. Timing assertions are inherently machine-sensitive,
// so the guard only runs when CROSSMATCH_BENCH_GUARD=1.
func TestDisabledTracerOverheadGuard(t *testing.T) {
	if os.Getenv("CROSSMATCH_BENCH_GUARD") != "1" {
		t.Skip("set CROSSMATCH_BENCH_GUARD=1 to run the timing guard")
	}
	p := syntheticPreset
	measure := func(r *experiments.Runner) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunTable(p, experiments.TableOptions{
						Scale: 0.1, Seed: benchSeed, Repeats: 1, Runner: r,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(res.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	bare := measure(&experiments.Runner{Parallelism: 1})
	disabled := measure(&experiments.Runner{
		Parallelism: 1,
		// recorder attached, recording disabled
		Trace: NewTracer(TraceOptions{Sample: -1}),
	})
	if ratio := disabled / bare; ratio > 1.02 {
		t.Errorf("disabled tracer costs %.1f%% (bare %.0fns vs disabled-trace %.0fns); want <= 2%%",
			(ratio-1)*100, bare, disabled)
	}
}

// BenchmarkBatchWindow measures one BatchCOM windowed-dispatch
// simulation end to end, excluding stream generation: the per-window
// buffer/flush machinery, the batch edge-set build and the canonical
// per-window matching. TestAllocCeilings holds its allocs/op — the
// windowed hot path must not quietly start allocating per buffered
// request.
func BenchmarkBatchWindow(b *testing.B) {
	cfg, err := workload.Synthetic(2500, 500, 1.0, "real")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.Generate(cfg, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := []Option{WithSeed(benchSeed), WithBatchWindow(10)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SimulateContext(context.Background(), stream, BatchCOM, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalRevenue(), "rev")
	}
}

// TestAllocCeilings fails when a hot path's allocation count regresses.
// Allocation counts repeat where ns/op on a shared machine does not, so
// they can carry a threshold: each ceiling is 1.10x the count recorded
// when the benchmark's path was last reworked on purpose: PR 27 for all
// three, when online.Pool's scratch stopped going through a sync.Pool
// that dropped Puts under -race (31328, 37722 and 35572 allocs/op with
// or without -race; 35238, 41922 and 38089 under -race before it).
// BatchWindow's was lowered to 1.10x 26213 once BatchCOM's flush sorted
// with slices.SortFunc instead of sort.Slice (35566 → 21415) and every
// window went to MaxWeightFlow instead of the dense Hungarian. All three
// were lowered again when a waiting worker became one online.Pool slot
// and the hub's per-worker record went (under -race: 31328 → 26462,
// 37720 → 31580, 26219 → 24206), and once more when core.Matching kept
// its IDs as 64-bit words instead of two maps of assignment indices
// (26342, 31452 and 24174 under -race). A change that allocates less may
// lower a ceiling; one that allocates more must say why.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three benchmarks")
	}
	for _, c := range []struct {
		name    string
		fn      func(*testing.B)
		ceiling int64
	}{
		{"TableV", BenchmarkTableV, 28976},
		{"TableVI", BenchmarkTableVI, 34597},
		{"BatchWindow", BenchmarkBatchWindow, 26591},
	} {
		if got := testing.Benchmark(c.fn).AllocsPerOp(); got > c.ceiling {
			t.Errorf("Benchmark%s: %d allocs/op, ceiling %d", c.name, got, c.ceiling)
		} else {
			t.Logf("Benchmark%s: %d allocs/op, ceiling %d", c.name, got, c.ceiling)
		}
	}
}

// runBytesPerEventCeiling is what one RamCOM run may allocate per event
// of a city40k stream: 1.10x the 21.5 bytes measured under -race once
// core.Matching kept its IDs as 64-bit words instead of two maps of
// assignment indices (35.2 before, when a waiting worker became one
// online.Pool slot and the hub's 32-byte per-worker record went; 38.4
// before that; 39.8 when the hub stopped building a 3n-float table per
// worker arrival, 146.2 before that).
const runBytesPerEventCeiling = 23.7

// TestRunBytesPerEvent holds the bytes a run allocates, which timings
// cannot carry and which set the engine's peak RSS: runtime.MemStats'
// TotalAlloc delta over one RamCOM run of the ledger's city at a tenth
// of engine_city's size (bench/streams.go: 50 workers/km², 9 requests a
// worker, radius 1 km, uniform), stream generation excluded. The delta
// repeats to within a few hundred bytes, with or without -race.
func TestRunBytesPerEvent(t *testing.T) {
	const workers, requests = 4000, 36000
	sq := workload.NewUniformSquare(math.Sqrt(workers / 50.0))
	var cfg workload.Config
	for id := 1; id <= 2; id++ {
		cfg.Platforms = append(cfg.Platforms, workload.PlatformSpec{
			ID: PlatformID(id), Requests: requests / 2, Workers: workers / 2, Radius: 1,
			RequestSpatial: sq, Values: workload.DefaultRealValues(),
		})
	}
	stream, err := workload.Generate(cfg, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SimulateContext(context.Background(), stream, RamCOM, WithSeed(benchSeed))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() == 0 {
		t.Fatal("nothing served")
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(stream.Len())
	if got > runBytesPerEventCeiling {
		t.Errorf("%.1f bytes allocated per event over %d events, ceiling %.1f", got, stream.Len(), runBytesPerEventCeiling)
	} else {
		t.Logf("%.1f bytes allocated per event over %d events, ceiling %.1f", got, stream.Len(), runBytesPerEventCeiling)
	}
}
