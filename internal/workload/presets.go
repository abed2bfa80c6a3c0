package workload

import (
	"errors"
	"fmt"
	"sort"

	"crossmatch/internal/core"
)

// ErrUnknownPreset is the sentinel wrapped by PresetFor and
// PresetConfig for dataset codes that match no preset; match it with
// errors.Is.
var ErrUnknownPreset = errors.New("unknown preset")

// Preset names the six real-dataset substitutes of Table III. Each
// preset describes a *pair* of platforms (DiDi-like = platform 1,
// Yueche-like = platform 2) sharing one city, because the paper's
// cooperative experiments always run the two platforms of a city-month
// together.
type Preset struct {
	// Name is the paper's dataset code, e.g. "RDC10+RYC10".
	Name string
	// City selects the spatial model.
	City string
	// R1, W1 are platform 1's counts; R2, W2 platform 2's (Table III).
	R1, W1, R2, W2 int
	// Radius is the service radius (1.0 km in every Table III dataset).
	Radius float64
}

// Presets returns the Table III dataset pairs at full paper scale.
// Counts are the paper's per-day averages.
func Presets() []Preset {
	return []Preset{
		{Name: "RDC10+RYC10", City: "chengdu", R1: 91321, W1: 9145, R2: 90589, W2: 7038, Radius: 1.0},
		{Name: "RDC11+RYC11", City: "chengdu", R1: 100973, W1: 11199, R2: 100448, W2: 9333, Radius: 1.0},
		{Name: "RDX11+RYX11", City: "xian", R1: 57611, W1: 2441, R2: 57638, W2: 2686, Radius: 1.0},
	}
}

// PresetFor looks a preset up by its dataset code: unknown codes return
// an error wrapping ErrUnknownPreset that lists the known presets.
func PresetFor(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("workload: %w %q (want one of %v)", ErrUnknownPreset, name, PresetNames())
}

// PresetNames returns the dataset codes in canonical order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Config converts the preset into a generator configuration, scaled by
// scale in (0, 1] (1 = full Table III size; the benchmark harness runs
// smaller scales and documents them in EXPERIMENTS.md).
func (p Preset) Config(scale float64) (Config, error) {
	if scale <= 0 || scale > 1 {
		return Config{}, fmt.Errorf("workload: scale %v outside (0, 1]", scale)
	}
	appearances := PresetAppearances
	var pair CityPair
	switch p.City {
	case "chengdu":
		pair = ChengduPair()
	case "xian":
		pair = XianPair()
	case "synthetic":
		// The Table IV synthetic city: Chengdu-like geography with the
		// sweeps' lower re-appearance count (see SyntheticAppearances).
		pair = ChengduPair()
		appearances = SyntheticAppearances
	default:
		return Config{}, fmt.Errorf("workload: unknown city %q", p.City)
	}
	values := DefaultRealValues()
	n := func(x int) int {
		s := int(float64(x) * scale)
		if s < 1 && x > 0 {
			s = 1
		}
		return s
	}
	mk := func(id int, r, w int, reqSp, workSp SpatialModel) PlatformSpec {
		return PlatformSpec{
			ID:             platformID(id),
			Requests:       n(r),
			Workers:        n(w),
			Radius:         p.Radius,
			RequestSpatial: reqSp,
			WorkerSpatial:  workSp,
			Values:         values,
			Appearances:    appearances,
		}
	}
	return Config{Platforms: []PlatformSpec{
		mk(1, p.R1, p.W1, pair.P1Requests, pair.P1Workers),
		mk(2, p.R2, p.W2, pair.P2Requests, pair.P2Workers),
	}}, nil
}

// Synthetic builds the Table IV scalability configuration: two
// cooperating platforms that split |R| requests and |W| workers evenly
// (the paper: "for different cooperative platforms, we generate equal
// number of requests as well as equal number of workers ... picked up
// from RDC11 and RYC11"), over the Chengdu-like city, with the given
// service radius and value distribution ("real" or "normal").
func Synthetic(totalRequests, totalWorkers int, radius float64, valueDist string) (Config, error) {
	values, err := syntheticValues(totalRequests, totalWorkers, radius, valueDist)
	if err != nil {
		return Config{}, err
	}
	pair := ChengduPair()
	mk := func(id int, r, w int, reqSp, workSp SpatialModel) PlatformSpec {
		return PlatformSpec{
			ID:             platformID(id),
			Requests:       r,
			Workers:        w,
			Radius:         radius,
			RequestSpatial: reqSp,
			WorkerSpatial:  workSp,
			Values:         values,
			Appearances:    SyntheticAppearances,
		}
	}
	return Config{Platforms: []PlatformSpec{
		mk(1, totalRequests/2, totalWorkers/2, pair.P1Requests, pair.P1Workers),
		mk(2, totalRequests-totalRequests/2, totalWorkers-totalWorkers/2, pair.P2Requests, pair.P2Workers),
	}}, nil
}

// SyntheticMulti generalizes Synthetic to n >= 2 cooperating platforms —
// the paper's model allows "several cooperative platforms" (Definition
// 2.3) though its evaluation uses two. Totals split evenly; platform i's
// demand concentrates on the city's ring hot spots assigned to it
// round-robin (hard support, tiny background), while every fleet follows
// total city demand — the n-way generalization of the Fig. 2 geography.
func SyntheticMulti(platforms, totalRequests, totalWorkers int, radius float64, valueDist string) (Config, error) {
	if platforms < 2 {
		return Config{}, fmt.Errorf("workload: need at least 2 platforms, got %d", platforms)
	}
	values, err := syntheticValues(totalRequests, totalWorkers, radius, valueDist)
	if err != nil {
		return Config{}, err
	}
	city := chengduLikeCity()
	// Ring spots (all but the first, central one) are dealt round-robin.
	ring := city.Spots[1:]
	if len(ring) < platforms {
		return Config{}, fmt.Errorf("workload: city has %d ring hot spots, cannot host %d platforms", len(ring), platforms)
	}
	workerModel, err := NewHotspotMix(city.Region, city.Spots, DefaultPairConfig.WorkerBackground)
	if err != nil {
		return Config{}, err
	}

	var cfg Config
	for p := 0; p < platforms; p++ {
		var spots []Hotspot
		for j, s := range ring {
			if j%platforms == p {
				spots = append(spots, s)
			}
		}
		reqModel, err := NewHotspotMix(city.Region, spots, DefaultPairConfig.RequestBackground)
		if err != nil {
			return Config{}, err
		}
		r := totalRequests / platforms
		w := totalWorkers / platforms
		if p == platforms-1 { // remainder to the last platform
			r = totalRequests - r*(platforms-1)
			w = totalWorkers - w*(platforms-1)
		}
		cfg.Platforms = append(cfg.Platforms, PlatformSpec{
			ID:             platformID(p + 1),
			Requests:       r,
			Workers:        w,
			Radius:         radius,
			RequestSpatial: reqModel,
			WorkerSpatial:  workerModel,
			Values:         values,
			Appearances:    SyntheticAppearances,
		})
	}
	return cfg, nil
}

// syntheticValues checks Synthetic's and SyntheticMulti's shared
// arguments and returns the value model valueDist names: "real" (or
// empty) or "normal".
func syntheticValues(totalRequests, totalWorkers int, radius float64, valueDist string) (ValueModel, error) {
	if totalRequests < 0 || totalWorkers < 0 {
		return nil, fmt.Errorf("workload: negative totals")
	}
	if radius <= 0 {
		return nil, fmt.Errorf("workload: radius %v must be positive", radius)
	}
	switch valueDist {
	case "real", "":
		return DefaultRealValues(), nil
	case "normal":
		return DefaultNormalValues(), nil
	}
	return nil, fmt.Errorf("workload: unknown value distribution %q (want real or normal)", valueDist)
}

// GenerateNamed generates the stream the commands' generator flags
// name: the Table III preset at scale when preset is non-empty, else
// Synthetic(requests, workers, radius, valueDist), either under seed.
func GenerateNamed(preset string, scale float64, requests, workers int, radius float64, valueDist string, seed int64) (*core.Stream, error) {
	var cfg Config
	var err error
	if preset != "" {
		var p Preset
		if p, err = PresetFor(preset); err != nil {
			return nil, err
		}
		cfg, err = p.Config(scale)
	} else {
		cfg, err = Synthetic(requests, workers, radius, valueDist)
	}
	if err != nil {
		return nil, err
	}
	return Generate(cfg, seed)
}

// Appearance counts: how many times each physical worker re-joins the
// waiting list over a day (a taxi serves several trips per day; the
// paper's OFF row serves every one of RDC10's 91,321 requests with only
// 9,145 workers, pinning ~10 appearances per worker on the city
// datasets). The synthetic sweeps use fewer so that the |W| axis
// saturates near |W| = 1000 at |R| = 2500, as Fig. 5(e) reports.
const (
	PresetAppearances    = 10
	SyntheticAppearances = 4
)

// Table IV sweep axes.
var (
	// SweepRequests is Table IV's |R| axis.
	SweepRequests = []int{500, 1000, 2500, 5000, 10000, 20000, 50000, 100000}
	// SweepWorkers is Table IV's |W| axis.
	SweepWorkers = []int{100, 200, 500, 1000, 2500, 5000, 10000, 20000}
	// SweepRadius is Table IV's rad axis (km).
	SweepRadius = []float64{0.5, 1.0, 1.5, 2.0, 2.5}
)

func platformID(id int) core.PlatformID { return core.PlatformID(id) }
