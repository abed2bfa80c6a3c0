package online

import (
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
	"crossmatch/internal/trace"
)

// DemCOM is the deterministic cross online matching algorithm
// (Algorithm 1). It gives inner workers absolute priority — an incoming
// request goes to the nearest available inner worker when one covers it
// (lines 3-6) — and otherwise turns the request into a cooperative one:
// the minimum outer payment is estimated by Monte-Carlo sampling
// (Algorithm 2), each eligible outer worker is probed for acceptance at
// that payment, and the nearest accepting worker is claimed (lines
// 8-26). The platform books v - v' for cooperative requests.
type DemCOM struct {
	cooperative

	// PaymentOracle, when true, replaces the Algorithm 2 estimator with
	// the exact minimum acceptable payment (the cheapest history value
	// among eligible workers). Used by the ablation study to cost the
	// Monte-Carlo sampling error; off in all paper-faithful runs.
	PaymentOracle bool
}

// NewDemCOM builds the matcher. coop supplies and claims outer workers
// (use NoCoop to degrade to TOTA); mc configures Algorithm 2; rng drives
// both the sampling and the acceptance probes.
func NewDemCOM(coop CoopView, mc pricing.MonteCarlo, rng *rand.Rand) *DemCOM {
	return &DemCOM{cooperative: newCooperative(coop, mc, rng)}
}

// Name implements Matcher.
func (m *DemCOM) Name() string { return "DemCOM" }

// RequestArrives implements Matcher (Algorithm 1).
func (m *DemCOM) RequestArrives(r *core.Request, d *Decision) {
	sp := m.tr.Begin(r)
	m.decide(r, sp, d)
	sp.Finish(string(d.Reason), d.Assignment.Payment, d.Probes, d.ClaimRetries)
}

func (m *DemCOM) decide(r *core.Request, sp *trace.Span, d *Decision) {
	// Lines 3-6: nearest available inner worker wins outright.
	t := sp.StageStart()
	w, ok := claimNearestInner(m.pool, r)
	sp.EndStage(trace.StageInner, t)
	if ok {
		*d = Decision{
			Served:     true,
			Reason:     ReasonInner,
			Assignment: core.Assignment{Request: r, Worker: w},
		}
		return
	}

	// Lines 8-26: the cooperative path at Algorithm 2's payment.
	m.assignOuter(r, sp, m.quote, d)
}

// quote returns the outer payment to offer: the Algorithm 2 estimate, or
// the exact minimum under PaymentOracle. There is always one.
func (m *DemCOM) quote(r *core.Request, group []*pricing.History) (float64, bool) {
	if m.PaymentOracle {
		return pricing.ExactMinAcceptable(r.Value, group), true
	}
	return estimatePayment(m.quoter, r.Value, group, m.rng, m.scratch), true
}
