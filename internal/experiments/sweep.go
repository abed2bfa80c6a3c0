package experiments

import (
	"fmt"
	"runtime"

	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

// SweepAxis selects which Table IV parameter a sweep varies.
type SweepAxis string

const (
	// AxisRequests varies |R| (Fig. 5 a-d).
	AxisRequests SweepAxis = "|R|"
	// AxisWorkers varies |W| (Fig. 5 e-h).
	AxisWorkers SweepAxis = "|W|"
	// AxisRadius varies rad (Fig. 5 i-l).
	AxisRadius SweepAxis = "rad"
)

// SweepOptions configures a scalability sweep.
type SweepOptions struct {
	// Seed drives generation and algorithms. Each x value uses Seed so
	// all algorithms at one x see the identical stream.
	Seed int64
	// Repeats averages each point over this many seeds (default 1).
	Repeats int
	// ScaleCap truncates the axis to values <= ScaleCap, letting tests
	// and quick runs use the Table IV axes without the 100k points.
	ScaleCap float64
	// Runner fans the sweep's unit runs (one per x value, algorithm and
	// repeat) across a worker pool; nil uses GOMAXPROCS.
	Runner *Runner
}

// SweepPoint is one x value's measurements for one algorithm.
type SweepPoint struct {
	X          float64
	Revenue    float64 // total across both platforms
	ResponseMs float64 // mean per-request decision latency
	MemoryMB   float64
	AcptRatio  float64 // cooperative acceptance ratio (0 for TOTA)
}

// SweepResult holds a full sweep: per algorithm, per x value.
type SweepResult struct {
	Axis   SweepAxis
	Xs     []float64
	Algos  []string
	Points map[string][]SweepPoint // algorithm -> one point per x
}

// Get returns algorithm algo's point at x index i.
func (s *SweepResult) Get(algo string, i int) (SweepPoint, bool) {
	pts, ok := s.Points[algo]
	if !ok || i < 0 || i >= len(pts) {
		return SweepPoint{}, false
	}
	return pts[i], true
}

// Series renders the four Fig. 5 metrics as printable series
// (revenue, response time, memory, acceptance ratio).
func (s *SweepResult) Series() (revenue, response, memory, acceptance *stats.Series) {
	xs := make([]string, len(s.Xs))
	for i, x := range s.Xs {
		if x == float64(int64(x)) {
			xs[i] = stats.FormatCount(int(x))
		} else {
			xs[i] = stats.FormatFloat(x, 1)
		}
	}
	title := fmt.Sprintf("Sweep over %s", s.Axis)
	revenue = stats.NewSeries(title, string(s.Axis), "Total revenue", xs)
	response = stats.NewSeries(title, string(s.Axis), "Response time (ms)", xs)
	memory = stats.NewSeries(title, string(s.Axis), "Memory (MB)", xs)
	acceptance = stats.NewSeries(title, string(s.Axis), "Acceptance ratio", xs)
	for _, algo := range s.Algos {
		for i, p := range s.Points[algo] {
			revenue.Set(algo, i, p.Revenue)
			response.Set(algo, i, p.ResponseMs)
			memory.Set(algo, i, p.MemoryMB)
			if algo != platform.AlgTOTA {
				acceptance.Set(algo, i, p.AcptRatio)
			}
		}
	}
	return revenue, response, memory, acceptance
}

// RunSweep reproduces one column of Fig. 5: it varies the given axis
// over Table IV's values (all other parameters at their bold defaults
// |R|=2500, |W|=500, rad=1.0) and measures TOTA, DemCOM and RamCOM.
// OFF is omitted, as in the paper ("Since OFF can never be achieved in
// the real world, we do not compare with it").
func RunSweep(axis SweepAxis, opts SweepOptions) (*SweepResult, error) {
	o := opts
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	var xs []float64
	switch axis {
	case AxisRequests:
		for _, v := range workload.SweepRequests {
			xs = append(xs, float64(v))
		}
	case AxisWorkers:
		for _, v := range workload.SweepWorkers {
			xs = append(xs, float64(v))
		}
	case AxisRadius:
		xs = append(xs, workload.SweepRadius...)
	default:
		return nil, fmt.Errorf("experiments: unknown sweep axis %q", axis)
	}
	if o.ScaleCap > 0 {
		trimmed := xs[:0]
		for _, x := range xs {
			if x <= o.ScaleCap {
				trimmed = append(trimmed, x)
			}
		}
		xs = trimmed
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("experiments: sweep axis %q has no points under cap %v", axis, o.ScaleCap)
	}

	res := &SweepResult{Axis: axis, Xs: xs, Algos: append([]string(nil), onlineAlgos...), Points: map[string][]SweepPoint{}}
	// One cell per (x, algorithm); every unit run regenerates its stream
	// from (the x value's config, seed), so all algorithms at one x and
	// repeat see the identical stream.
	var cells []cell
	var cellX []float64
	for _, x := range xs {
		r, w, rad := 2500, 500, 1.0
		switch axis {
		case AxisRequests:
			r = int(x)
		case AxisWorkers:
			w = int(x)
		case AxisRadius:
			rad = x
		}
		cfg, err := workload.Synthetic(r, w, rad, "real") // Table IV's "real" value distribution
		if err != nil {
			return nil, err
		}
		for _, algo := range res.Algos {
			cells = append(cells, cell{label: fmt.Sprintf("%s=%v/%s", axis, x, algo), workload: cfg, spec: platform.Spec{Algorithm: algo}})
			cellX = append(cellX, x)
		}
	}
	points, err := runGrid(plan{runner: o.Runner, seed: o.Seed, stride: 7919, repeats: o.Repeats}, cells,
		func(_ int, u unit) (SweepPoint, error) {
			run, err := u.simulate()
			if err != nil {
				return SweepPoint{}, err
			}
			// Capture memory while the stream and result are still live;
			// without the KeepAlive the GC frees the stream before the
			// measurement (it has no later uses).
			p := SweepPoint{MemoryMB: stats.MemoryMB(), Revenue: run.TotalRevenue(),
				ResponseMs: responseMs(run), AcptRatio: run.AcceptanceRatio()}
			runtime.KeepAlive(u.stream)
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	for ci, pts := range points {
		acc := SweepPoint{
			X:          cellX[ci],
			Revenue:    mean(pts, func(p SweepPoint) float64 { return p.Revenue }),
			ResponseMs: mean(pts, func(p SweepPoint) float64 { return p.ResponseMs }),
			MemoryMB:   mean(pts, func(p SweepPoint) float64 { return p.MemoryMB }),
			AcptRatio:  mean(pts, func(p SweepPoint) float64 { return p.AcptRatio }),
		}
		stats.MustNonNegative("revenue", acc.Revenue)
		stats.MustNonNegative("response", acc.ResponseMs)
		stats.MustNonNegative("acceptance", acc.AcptRatio)
		res.Points[cells[ci].spec.Algorithm] = append(res.Points[cells[ci].spec.Algorithm], acc)
	}
	return res, nil
}
