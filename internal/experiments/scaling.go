package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// ScalingOptions configures the city-size scaling sweep: fixed-density
// cities growing in worker count, so the table reads as throughput
// against working-set size.
type ScalingOptions struct {
	// Workers are the physical worker counts swept (per city, summed
	// over both platforms).
	Workers []int
	// RequestsPerWorker fixes the demand ratio; with the default 9 every
	// city has 10× its worker count in events.
	RequestsPerWorker int
	// Density is workers per km²; the city square grows as the worker
	// count does, keeping per-cell load comparable across sizes.
	// Default 50.
	Density float64
	// Radius is the service radius in km (default 1.0).
	Radius float64
	// Algorithm defaults to RamCOM — O(1) per decision, so the sweep
	// measures the runtime, not the matcher.
	Algorithm string
	Seed      int64
}

func (o *ScalingOptions) withDefaults() ScalingOptions {
	out := *o
	if len(out.Workers) == 0 {
		out.Workers = []int{10_000, 100_000}
	}
	if out.RequestsPerWorker <= 0 {
		out.RequestsPerWorker = 9
	}
	if out.Density <= 0 {
		out.Density = 50
	}
	if out.Radius <= 0 {
		out.Radius = 1.0
	}
	if out.Algorithm == "" {
		out.Algorithm = platform.AlgRamCOM
	}
	return out
}

// ScalingRow is one city size's measurement.
type ScalingRow struct {
	Workers int
	Events  int
	Revenue float64
	Served  int
	// GenMs is the stream-generation cost.
	GenMs float64
	// RunMs and EventsPerSec measure the matching run itself.
	RunMs        float64
	EventsPerSec float64
}

// ScalingResult is the full sweep.
type ScalingResult struct {
	Opts ScalingOptions
	Rows []ScalingRow
}

// Table renders the sweep.
func (r *ScalingResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("City-size scaling (%s, %d req/worker, density %.0f/km², rad %.1f km)",
			r.Opts.Algorithm, r.Opts.RequestsPerWorker, r.Opts.Density, r.Opts.Radius),
		"Workers", "Events", "Revenue", "Served", "Gen ms", "Run ms", "Events/s")
	for _, row := range r.Rows {
		tb.Add(
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%d", row.Events),
			stats.FormatFloat(row.Revenue, 0),
			fmt.Sprintf("%d", row.Served),
			stats.FormatFloat(row.GenMs, 0),
			stats.FormatFloat(row.RunMs, 0),
			stats.FormatFloat(row.EventsPerSec, 0))
	}
	return tb
}

// WriteNote explains how to read the table.
func (r *ScalingResult) WriteNote(w io.Writer) error {
	_, err := fmt.Fprintln(w, "Fixed-density cities: area grows with the worker count, so per-cell load"+
		"\nstays comparable across sizes and Events/s falls only with the working set.")
	return err
}

// scalingCity builds a fixed-density two-platform city: workers and
// requests uniform over a square sized so worker density stays at
// opts.Density regardless of scale.
func scalingCity(o ScalingOptions, totalWorkers int) (workload.Config, error) {
	side := math.Sqrt(float64(totalWorkers) / o.Density)
	if side < 2*o.Radius {
		side = 2 * o.Radius
	}
	sq := workload.NewUniformSquare(side)
	totalRequests := totalWorkers * o.RequestsPerWorker
	mk := func(id int, workers, requests int) workload.PlatformSpec {
		return workload.PlatformSpec{
			ID:             core.PlatformID(id),
			Requests:       requests,
			Workers:        workers,
			Radius:         o.Radius,
			RequestSpatial: sq,
			Values:         workload.DefaultRealValues(),
		}
	}
	return workload.Config{Platforms: []workload.PlatformSpec{
		mk(1, totalWorkers/2, totalRequests/2),
		mk(2, totalWorkers-totalWorkers/2, totalRequests-totalRequests/2),
	}}, nil
}

// RunScaling runs the sweep. Runs are sequential on purpose: each run
// owns the machine, so the wall-clock column is an honest throughput
// measurement rather than runs contending with each other.
func RunScaling(opts ScalingOptions) (*ScalingResult, error) {
	o := opts.withDefaults()
	res := &ScalingResult{Opts: o}
	for _, w := range o.Workers {
		cfg, err := scalingCity(o, w)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		stream, err := workload.Generate(cfg, o.Seed)
		if err != nil {
			return nil, err
		}
		genMs := float64(time.Since(t0)) / float64(time.Millisecond)
		factory, runCfg, err := platform.Spec{Algorithm: o.Algorithm, Seed: o.Seed, MaxValue: stream.MaxValue()}.Lower()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		out, err := platform.Run(stream, factory, runCfg)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		runMs := float64(time.Since(t1)) / float64(time.Millisecond)
		row := ScalingRow{
			Workers: w,
			Events:  stream.Len(),
			Revenue: out.TotalRevenue(),
			Served:  out.TotalServed(),
			GenMs:   genMs,
			RunMs:   runMs,
		}
		if runMs > 0 {
			row.EventsPerSec = float64(stream.Len()) / (runMs / 1000)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
