package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ValueModel draws request values (the v_r of Definition 2.1). All
// models return positive, finite values bounded by their Max.
type ValueModel interface {
	// Sample returns one request value.
	Sample(rng *rand.Rand) float64
	// Max returns the a-priori value bound max(v_r) that RamCOM and
	// Greedy-RT assume known (Algorithm 3).
	Max() float64
}

// NormalValues is Table IV's "normal" distribution: N(Mu, Sigma)
// truncated to [Min, Cap] by resampling (with a clamping fallback).
type NormalValues struct {
	Mu, Sigma float64
	Min, Cap  float64
}

// NewNormalValues validates and returns the model.
func NewNormalValues(mu, sigma, min, cap float64) (NormalValues, error) {
	if sigma <= 0 || min <= 0 || cap <= min || mu <= 0 {
		return NormalValues{}, fmt.Errorf("workload: bad normal values (mu=%v sigma=%v min=%v cap=%v)", mu, sigma, min, cap)
	}
	return NormalValues{Mu: mu, Sigma: sigma, Min: min, Cap: cap}, nil
}

// Sample implements ValueModel.
func (n NormalValues) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 16; i++ {
		v := n.Mu + rng.NormFloat64()*n.Sigma
		if v >= n.Min && v <= n.Cap {
			return v
		}
	}
	// Pathological parameters: clamp instead of spinning.
	v := n.Mu + rng.NormFloat64()*n.Sigma
	return math.Min(math.Max(v, n.Min), n.Cap)
}

// Max implements ValueModel.
func (n NormalValues) Max() float64 { return n.Cap }

// RealValues is Table IV's "real" distribution: a log-normal with the
// heavy right tail characteristic of trip fares (many short cheap trips,
// few long expensive ones), capped at Cap. Median fare is exp(Mu).
type RealValues struct {
	Mu, Sigma float64 // parameters of the underlying normal
	Min, Cap  float64
}

// NewRealValues validates and returns the model.
func NewRealValues(mu, sigma, min, cap float64) (RealValues, error) {
	if sigma <= 0 || min <= 0 || cap <= min {
		return RealValues{}, fmt.Errorf("workload: bad real values (mu=%v sigma=%v min=%v cap=%v)", mu, sigma, min, cap)
	}
	return RealValues{Mu: mu, Sigma: sigma, Min: min, Cap: cap}, nil
}

// Sample implements ValueModel.
func (r RealValues) Sample(rng *rand.Rand) float64 {
	v := math.Exp(r.Mu + rng.NormFloat64()*r.Sigma)
	return math.Min(math.Max(v, r.Min), r.Cap)
}

// Max implements ValueModel.
func (r RealValues) Max() float64 { return r.Cap }

// DefaultRealValues is the fare model used by the city presets: median
// ~15 CNY, heavy tail, capped at 100 (mean ~19, matching the per-request
// revenue implied by Table V: 1.343e6 / 68689 ~ 19.6).
func DefaultRealValues() RealValues {
	v, err := NewRealValues(math.Log(15), 0.55, 1, 100)
	if err != nil {
		panic(err)
	}
	return v
}

// DefaultNormalValues is Table IV's "normal" counterpart with the same
// mean scale: N(20, 6) truncated to [1, 100].
func DefaultNormalValues() NormalValues {
	v, err := NewNormalValues(20, 6, 1, 100)
	if err != nil {
		panic(err)
	}
	return v
}
