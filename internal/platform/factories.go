package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
)

// ErrUnknownAlgorithm is the sentinel wrapped by FactoryFor for names
// that match no online matcher; match it with errors.Is.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// Algorithm names used across the experiment harness and CLIs.
const (
	AlgTOTA     = "TOTA"
	AlgGreedyRT = "Greedy-RT"
	AlgDemCOM   = "DemCOM"
	AlgRamCOM   = "RamCOM"
	AlgBatchCOM = "BatchCOM"
	AlgOFF      = "OFF"
)

// DefaultBatchWindow re-exports BatchCOM's default window length for
// callers configuring through this package.
const DefaultBatchWindow = online.DefaultBatchWindow

// TOTAFactory builds the single-platform greedy baseline.
func TOTAFactory() MatcherFactory {
	return func(core.PlatformID, online.CoopView, *rand.Rand) online.Matcher {
		return online.NewTOTAGreedy()
	}
}

// GreedyRTFactory builds the randomized-threshold baseline of [9];
// maxValue is the a-priori value bound Umax.
func GreedyRTFactory(maxValue float64) MatcherFactory {
	return func(_ core.PlatformID, _ online.CoopView, rng *rand.Rand) online.Matcher {
		return online.NewGreedyRT(maxValue, rng)
	}
}

// DemCOMFactory builds Algorithm 1 with the given Monte-Carlo
// configuration; oracle switches on the exact-minimum-payment ablation.
func DemCOMFactory(mc pricing.MonteCarlo, oracle bool) MatcherFactory {
	return func(_ core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
		m := online.NewDemCOM(coop, mc, rng)
		m.PaymentOracle = oracle
		return m
	}
}

// RamCOMOptions selects RamCOM's pricing mode and fallback behaviour
// for the ablation study.
type RamCOMOptions struct {
	// ThresholdPricing switches to the 1/e randomized threshold quote.
	ThresholdPricing bool
	// MinPaymentPricing prices cooperative requests like DemCOM does.
	MinPaymentPricing bool
	// NoInnerFallback runs Algorithm 3 literally: low-value requests
	// whose cooperative path fails are rejected even when inner workers
	// sit idle.
	NoInnerFallback bool
}

// RamCOMFactory builds Algorithm 3; maxValue is max(v_r), assumed known.
func RamCOMFactory(maxValue float64, opts RamCOMOptions) MatcherFactory {
	return func(_ core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
		m := online.NewRamCOM(maxValue, coop, rng)
		m.ThresholdPricing = opts.ThresholdPricing
		m.MinPaymentPricing = opts.MinPaymentPricing
		m.NoInnerFallback = opts.NoInnerFallback
		return m
	}
}

// BatchCOMFactory builds the windowed dispatch matcher: arrivals buffer
// for window virtual ticks (non-positive selects DefaultBatchWindow)
// and flush as one max-weight matching; deadline, when positive, caps
// any request's wait.
func BatchCOMFactory(mc pricing.MonteCarlo, window, deadline core.Time) MatcherFactory {
	return func(_ core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
		return online.NewBatchCOM(coop, mc, rng, window, deadline)
	}
}

// AlgConfig carries the per-algorithm knobs FactoryConfigured needs
// beyond the name: the a-priori value bound for the threshold
// algorithms, and BatchCOM's window geometry.
type AlgConfig struct {
	// MaxValue is max(v_r), used by Greedy-RT and RamCOM, which refuse
	// a NaN or infinite one rather than draw a threshold from it.
	MaxValue float64
	// Window is BatchCOM's batching window in virtual ticks;
	// non-positive selects DefaultBatchWindow. Ignored by the greedy
	// algorithms.
	Window core.Time
	// Deadline, when positive, caps how long BatchCOM may hold any
	// single request, pulling the window flush forward. Ignored by the
	// greedy algorithms.
	Deadline core.Time
}

// FactoryConfigured is FactoryFor with the full knob set; FactoryFor
// delegates here with a zero window.
func FactoryConfigured(name string, c AlgConfig) (MatcherFactory, error) {
	if (name == AlgGreedyRT || name == AlgRamCOM) && (math.IsNaN(c.MaxValue) || math.IsInf(c.MaxValue, 0)) {
		return nil, fmt.Errorf("platform: %s max value %v must be finite", name, c.MaxValue)
	}
	switch name {
	case AlgTOTA:
		return TOTAFactory(), nil
	case AlgGreedyRT:
		return GreedyRTFactory(c.MaxValue), nil
	case AlgDemCOM:
		return DemCOMFactory(pricing.DefaultMonteCarlo, false), nil
	case AlgRamCOM:
		return RamCOMFactory(c.MaxValue, RamCOMOptions{}), nil
	case AlgBatchCOM:
		return BatchCOMFactory(pricing.DefaultMonteCarlo, c.Window, c.Deadline), nil
	default:
		return nil, fmt.Errorf("platform: %w %q (want %s, %s, %s, %s or %s)",
			ErrUnknownAlgorithm, name, AlgTOTA, AlgGreedyRT, AlgDemCOM, AlgRamCOM, AlgBatchCOM)
	}
}

// SamplesMinPayment reports whether FactoryConfigured's matcher for the
// named algorithm quotes through pricing's Algorithm 2 estimator, i.e.
// whether its decisions depend on pricing.SamplerRev. Logs of the other
// algorithms re-drive identically across sampler revisions.
func SamplesMinPayment(name string) bool {
	return name == AlgDemCOM || name == AlgBatchCOM
}

// FactoryFor returns the factory for a paper algorithm name; stream
// statistics supply max(v_r) for the threshold algorithms. Unknown names
// (including AlgOFF, which is not an online matcher — use Offline)
// return an error wrapping ErrUnknownAlgorithm that names the
// acceptable algorithms.
func FactoryFor(name string, maxValue float64) (MatcherFactory, error) {
	return FactoryConfigured(name, AlgConfig{MaxValue: maxValue})
}
