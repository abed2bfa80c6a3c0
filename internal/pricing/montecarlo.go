package pricing

import (
	"fmt"
	"math"
)

// MonteCarlo estimates the minimum outer payment of a cooperative
// request (Algorithm 2 of the paper): the smallest payment v' at which
// some eligible outer worker would still accept, averaged over
// independently sampled acceptance scenarios.
//
// Xi and Eta control the accuracy per Lemma 1: with
// n_s = ceil(4 ln(2/Xi) / Eta^2) sampling instances, the estimate
// exceeds the true minimum by more than a factor (1+Xi) with probability
// below Eta. Xi also bounds the dichotomy resolution (the paper's
// "while v_m - v_l > Xi*v_r" loop).
type MonteCarlo struct {
	// Xi in (0,1): relative accuracy of the estimate and resolution of
	// the dichotomy. Default 0.1.
	Xi float64
	// Eta in (0,1): probability the accuracy bound is missed. Default 0.1.
	Eta float64
}

// DefaultMonteCarlo is the configuration used by the experiments:
// Xi = 0.1, Eta = 0.25, giving n_s = ceil(4 ln 20 / 0.0625) = 192
// instances. The paper does not publish its choice; this keeps the
// estimator within 10% with 75% confidence per request, which the
// per-request averaging of the evaluation smooths well below the
// reported metric noise while keeping DemCOM's decision latency in the
// paper's sub-millisecond regime. Tighten Xi/Eta for higher confidence
// at proportional cost (n_s grows as 1/Eta^2).
var DefaultMonteCarlo = MonteCarlo{Xi: 0.1, Eta: 0.25}

// Instances returns the number of sampling instances n_s per Lemma 1.
func (mc MonteCarlo) Instances() int {
	return int(math.Ceil(4 * math.Log(2/mc.Xi) / (mc.Eta * mc.Eta)))
}

// Validate reports whether the parameters are usable.
func (mc MonteCarlo) Validate() error {
	if !(mc.Xi > 0 && mc.Xi < 1) {
		return fmt.Errorf("pricing: Xi = %v outside (0,1)", mc.Xi)
	}
	if !(mc.Eta > 0 && mc.Eta < 1) {
		return fmt.Errorf("pricing: Eta = %v outside (0,1)", mc.Eta)
	}
	return nil
}

// SamplerRev identifies MinOuterPayment's RNG consumption contract for
// state that outlives the process (the WAL checkpoint fingerprint): two
// binaries with different revisions drive the same seed and events to
// different DemCOM/BatchCOM decisions. 0 was the per-worker sampler (one
// draw per worker per probe, on pre-seeded sub-streams); 1 is the group
// draw (one draw per probe against pr(v', W)).
const SamplerRev = 1

// groupFloor returns the smallest payment with non-zero group acceptance
// probability: the minimum history value across the group, or the
// smallest positive payment when some member has no history.
func groupFloor(group []*History) float64 {
	floor := math.Inf(1)
	for _, h := range group {
		if h.Len() == 0 {
			return math.Nextafter(0, 1)
		}
		if m := h.Min(); m < floor {
			floor = m
		}
	}
	if math.IsInf(floor, 1) {
		return 0
	}
	return floor
}

// epsilonFor is the paper's epsilon: a nudge above the full price marking
// a rejected instance. It is small enough never to distort accepted
// instances' average materially, large enough to survive float64 addition.
func epsilonFor(value float64) float64 {
	return 1e-6 * math.Max(value, 1)
}

// ExactMinAcceptable returns the true minimum payment at which at least
// one worker of the group has non-zero acceptance probability: the
// smallest history value across the group (capped at the request value;
// +epsilon when even the full price has zero probability). It is the
// oracle DemCOM-variant used by the ablation study to cost Algorithm 2's
// sampling error.
func ExactMinAcceptable(value float64, group []*History) float64 {
	best := math.Inf(1)
	for _, h := range group {
		if h.Len() == 0 {
			// Empty history accepts any positive payment.
			return math.Nextafter(0, 1)
		}
		if m := h.Min(); m < best {
			best = m
		}
	}
	if math.IsInf(best, 1) || best > value {
		return value + epsilonFor(value)
	}
	return best
}
