package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
)

// Sentinel errors of Spec.Resolve; match them with errors.Is.
var (
	// ErrUnknownAlgorithm reports a name that matches no online matcher.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	// ErrBadOption reports an out-of-range setting.
	ErrBadOption = errors.New("bad option")
)

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

// Spec is the engine configuration record: the nine settings that
// decide an engine's bits, so an engine is a pure function of its event
// stream and its Spec. Every entry point builds its engine through
// Lower, and the serving layer fingerprints its logs from the Spec.
type Spec struct {
	// Algorithm names the online matcher (Alg*).
	Algorithm string
	// Seed drives every random choice (matcher thresholds, acceptance
	// probes, Monte-Carlo sampling). Same seed, same stream, same result.
	Seed int64
	// Platforms is the engine's platform set; its order derives the
	// per-platform generators (ascending for parity with stream runs). A
	// stream run takes the stream's own set.
	Platforms []core.PlatformID
	// MaxValue is the a-priori max request value Umax that the threshold
	// algorithms (Greedy-RT, RamCOM) assume known; it must be positive
	// and finite for them and is ignored by the others.
	MaxValue float64
	// ServiceTicks, when positive, recycles workers: a worker who
	// completes a request re-joins its platform's waiting list
	// ServiceTicks after the assignment, at the request's location, as a
	// fresh entry with the earned value appended to its history (the
	// paper's "comes back to the platform again at a new time point").
	// Zero keeps the paper's one-shot model; negative is refused.
	ServiceTicks core.Time
	// DisableCoop turns off worker sharing: COM algorithms degrade to
	// TOTA (the degradation ablation).
	DisableCoop bool
	// Faults, when non-nil, injects cooperation faults (latency spikes,
	// dropped probes, transient claim errors, scheduled outages) into the
	// hub's probe and claim path behind a circuit breaker per partner.
	// Fault randomness is seeded from Seed and never touches matcher
	// randomness; a nil plan leaves the run bit-identical to a
	// fault-free build. See internal/fault.
	Faults *fault.Plan
	// Window is BatchCOM's batching window in virtual ticks; Resolve
	// turns a non-positive one into DefaultBatchWindow. BatchDeadline,
	// when positive, caps how long BatchCOM may hold any single request.
	// The greedy algorithms ignore both.
	Window        core.Time
	BatchDeadline core.Time
}

// Resolve checks the spec and fills in its one default, BatchCOM's
// window. An unknown algorithm is an error wrapping ErrUnknownAlgorithm
// that names the accepted ones; an out-of-range setting wraps
// ErrBadOption.
func (s Spec) Resolve() (Spec, error) {
	switch s.Algorithm {
	case AlgTOTA, AlgDemCOM:
	case AlgGreedyRT, AlgRamCOM:
		if !(s.MaxValue > 0) || math.IsInf(s.MaxValue, 0) {
			return s, fmt.Errorf("platform: %w: %s needs a positive, finite max value (the a-priori max request value), got %v",
				ErrBadOption, s.Algorithm, s.MaxValue)
		}
	case AlgBatchCOM:
		if s.Window <= 0 {
			s.Window = DefaultBatchWindow
		}
	default:
		return s, fmt.Errorf("platform: %w %q (want %s, %s, %s, %s or %s)",
			ErrUnknownAlgorithm, s.Algorithm, AlgTOTA, AlgGreedyRT, AlgDemCOM, AlgRamCOM, AlgBatchCOM)
	}
	if s.ServiceTicks < 0 {
		return s, fmt.Errorf("platform: %w: service ticks %d negative", ErrBadOption, s.ServiceTicks)
	}
	return s, nil
}

// Lower resolves the spec into the layer under it: the algorithm's
// matcher factory and a Config holding the spec's engine settings, to
// which the caller adds its observers before Run or NewEngine.
func (s Spec) Lower() (MatcherFactory, Config, error) {
	s, err := s.Resolve()
	if err != nil {
		return nil, Config{}, err
	}
	cfg := Config{Seed: s.Seed, ServiceTicks: s.ServiceTicks, DisableCoop: s.DisableCoop, Faults: s.Faults}
	switch s.Algorithm {
	case AlgTOTA:
		return func(core.PlatformID, online.CoopView, *rand.Rand) online.Matcher { return online.NewTOTAGreedy() }, cfg, nil
	case AlgGreedyRT:
		// The randomized-threshold baseline of [9].
		return func(_ core.PlatformID, _ online.CoopView, rng *rand.Rand) online.Matcher {
			return online.NewGreedyRT(s.MaxValue, rng)
		}, cfg, nil
	case AlgDemCOM:
		return DemCOMFactory(pricing.DefaultMonteCarlo, false), cfg, nil
	case AlgRamCOM:
		return RamCOMFactory(s.MaxValue, RamCOMOptions{}), cfg, nil
	default:
		return func(_ core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
			return online.NewBatchCOM(coop, pricing.DefaultMonteCarlo, rng, s.Window, s.BatchDeadline)
		}, cfg, nil
	}
}

// SamplesMinPayment reports whether Spec.Lower's matcher for the
// named algorithm quotes through pricing's Algorithm 2 estimator, i.e.
// whether its decisions depend on pricing.SamplerRev. Logs of the other
// algorithms re-drive identically across sampler revisions.
func SamplesMinPayment(name string) bool {
	return name == AlgDemCOM || name == AlgBatchCOM
}

// AlgConfig is a Spec's per-algorithm settings under older names
// (Deadline is BatchDeadline), for callers that build a factory without
// a Spec.
type AlgConfig struct {
	MaxValue         float64
	Window, Deadline core.Time
}

// FactoryConfigured is the factory half of Spec.Lower.
func FactoryConfigured(name string, c AlgConfig) (MatcherFactory, error) {
	f, _, err := Spec{Algorithm: name, MaxValue: c.MaxValue, Window: c.Window, BatchDeadline: c.Deadline}.Lower()
	return f, err
}
