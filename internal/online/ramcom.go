package online

import (
	"math"
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
	"crossmatch/internal/trace"
)

// RamCOM is the randomized cross online matching algorithm
// (Algorithm 3). At construction it draws k uniformly from {1..theta},
// theta = ceil(ln(max(v)+1)), fixing a value threshold e^k. Requests
// worth more than the threshold are steered to inner workers — a random
// available one, keeping the analysis's oblivious choice — while
// smaller requests are left to outer workers, priced at the payment
// maximizing the expected revenue (value - v') * pr(v', W) of
// Definition 4.1. When a large-value request finds no free inner worker
// it also falls through to the cooperative path (the behaviour of the
// paper's Example 3, where r3 exceeds the threshold but is served by
// outer worker w3).
type RamCOM struct {
	cooperative
	threshold float64
	// covScratch is the reused buffer of the high-value branch's
	// coverage query; a matcher is driven by one goroutine, so reuse
	// across requests is race-free.
	covScratch []*core.Worker

	// ThresholdPricing, when true, replaces the exact expected-revenue
	// maximization with the 1/e-style randomized threshold quote
	// (pricing.TableQuoter.ThresholdQuote) — the approximation behaviour
	// of the pricing scheme the paper cites. Used by the ablation study.
	ThresholdPricing bool
	// MinPaymentPricing, when true, prices cooperative requests at
	// DemCOM's minimum outer payment instead of the expected-revenue
	// maximizer, isolating the incentive mechanism from the value
	// routing. Used by the ablation study; mutually exclusive with
	// ThresholdPricing (MinPaymentPricing wins if both are set).
	MinPaymentPricing bool
	// MC configures Algorithm 2 when MinPaymentPricing is on.
	MC pricing.MonteCarlo
	// NoInnerFallback disables the inner-worker fallback for low-value
	// requests whose cooperative path fails. Algorithm 3 as printed
	// rejects such requests outright, which makes RamCOM's revenue
	// collapse whenever inner workers are plentiful — contradicting the
	// paper's own Fig. 5(e), where all algorithms converge once |W| is
	// large ("all the requests can be served by the inner crowd
	// workers"). The default therefore falls back to an idle inner
	// worker, mirroring the high-value branch's fallback the paper
	// demonstrates in Example 3; set NoInnerFallback for the
	// literal-Algorithm-3 ablation.
	NoInnerFallback bool
}

// NewRamCOM builds the matcher. maxValue is the a-priori bound max(v_r)
// of Algorithm 3 (the paper assumes it known; the workload generators
// publish it); rng drives the draw of k, the random inner-worker choice
// and the acceptance probes.
func NewRamCOM(maxValue float64, coop CoopView, rng *rand.Rand) *RamCOM {
	theta := int(math.Ceil(math.Log(maxValue + 1)))
	if theta < 1 {
		theta = 1
	}
	k := 1 + rng.Intn(theta) // k in {1, .., theta}
	return &RamCOM{
		cooperative: newCooperative(coop, pricing.DefaultMonteCarlo, rng),
		threshold:   math.Exp(float64(k)),
		MC:          pricing.DefaultMonteCarlo,
	}
}

// Name implements Matcher.
func (m *RamCOM) Name() string { return "RamCOM" }

// Threshold returns the drawn value threshold e^k.
func (m *RamCOM) Threshold() float64 { return m.threshold }

// RequestArrives implements Matcher (Algorithm 3).
func (m *RamCOM) RequestArrives(r *core.Request, d *Decision) {
	if r.Value > m.threshold {
		// Lines 4-8: random available inner worker.
		t := m.tr.StageStart()
		m.covScratch = m.pool.AppendCovering(m.covScratch[:0], r)
		if cands := m.covScratch; len(cands) > 0 {
			w := cands[m.rng.Intn(len(cands))]
			m.pool.Remove(w.ID)
			m.tr.EndStage(trace.StageInner, t)
			*d = Decision{
				Served:     true,
				Reason:     ReasonInner,
				Assignment: core.Assignment{Request: r, Worker: w},
			}
			return
		}
		m.tr.EndStage(trace.StageInner, t)
		// No free inner worker: fall through to the cooperative path
		// (Example 3's handling of r3).
	}

	// Lines 9-11: price the cooperative request and run Algorithm 1's
	// outer-assignment block (lines 13-26).
	m.assignOuter(r, m.quote, d)
	// A high-value request's branch already found no free inner worker.
	if d.Served || r.Value > m.threshold || m.NoInnerFallback {
		return
	}
	t := m.tr.StageStart()
	w, ok := claimNearestInner(m.pool, r)
	m.tr.EndStage(trace.StageInner, t)
	if !ok {
		return
	}
	// Inner fallback: an idle inner worker beats rejection.
	*d = Decision{
		Served:        true,
		CoopAttempted: d.CoopAttempted,
		Probes:        d.Probes,
		ClaimRetries:  d.ClaimRetries,
		Reason:        ReasonInnerFallback,
		Assignment:    core.Assignment{Request: r, Worker: w},
	}
}

// quote computes the outer payment for a cooperative request according
// to the configured pricing mode. ok=false means "reject" (no payment
// can yield positive expected revenue).
func (m *RamCOM) quote(r *core.Request, group []*pricing.History) (float64, bool) {
	switch {
	case m.MinPaymentPricing:
		m.quoter.MC = m.MC // honor post-construction MC changes
		est, err := m.quoter.MinOuterPayment(r.Value, group, m.rng, m.scratch)
		if err != nil {
			return 0, false
		}
		// A zero (or any non-positive) estimate is still a quote, exactly
		// as in DemCOM: the caller rejects on est > r.Value, and the
		// acceptance probes handle a free offer by refusing it
		// (pr(0, w) = 0). Rejecting here on est <= 0 made the two
		// algorithms disagree on identical estimates.
		return est, true
	case m.ThresholdPricing:
		q, err := m.quoter.ThresholdQuote(r.Value, group, 1-m.rng.Float64() /* (0,1] */, m.scratch)
		if err != nil || q.Payment <= 0 {
			return 0, false
		}
		return q.Payment, true
	default:
		q, err := m.quoter.MaxExpectedRevenue(r.Value, group, m.scratch)
		if err != nil || q.ExpectedRev <= 0 {
			return 0, false
		}
		return q.Payment, true
	}
}
