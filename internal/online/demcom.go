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
	pool    *Pool
	coop    CoopView
	quoter  *pricing.TableQuoter
	scratch *pricing.Scratch
	rng     *rand.Rand
	tr      *trace.Recorder
	// accepting is the reused probe-result scratch consumed in place by
	// the claim loop; one goroutine drives a matcher, so reuse across
	// requests is race-free.
	accepting []Candidate

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
	if coop == nil {
		coop = NoCoop{}
	}
	return &DemCOM{
		pool:    NewPool(nil),
		coop:    coop,
		quoter:  pricing.NewQuoter(mc),
		scratch: pricing.NewScratch(),
		rng:     rng,
	}
}

// PricingStats exposes the quoter's cumulative counters.
func (m *DemCOM) PricingStats() pricing.Stats { return m.quoter.Stats() }

// Name implements Matcher.
func (m *DemCOM) Name() string { return "DemCOM" }

// WorkerArrives implements Matcher.
func (m *DemCOM) WorkerArrives(w *core.Worker) { m.pool.Add(w) }

// Pool exposes the inner waiting list.
func (m *DemCOM) Pool() *Pool { return m.pool }

// BindTrace attaches the per-request decision tracer (nil detaches).
func (m *DemCOM) BindTrace(rc *trace.Recorder) { m.tr = rc }

// RequestArrives implements Matcher (Algorithm 1).
func (m *DemCOM) RequestArrives(r *core.Request) Decision {
	sp := m.tr.Begin(r)
	d := m.decide(r, sp)
	sp.Finish(string(d.Reason), d.Assignment.Payment, d.Probes, d.ClaimRetries)
	return d
}

func (m *DemCOM) decide(r *core.Request, sp *trace.Span) Decision {
	// Lines 3-6: nearest available inner worker wins outright.
	t := sp.StageStart()
	w, ok := claimNearestInner(m.pool, r)
	sp.EndStage(trace.StageInner, t)
	if ok {
		return Decision{
			Served:     true,
			Reason:     ReasonInner,
			Assignment: core.Assignment{Request: r, Worker: w},
		}
	}

	// Line 8: eligible outer workers.
	t = sp.StageStart()
	cands := m.coop.EligibleOuter(r)
	sp.EndStage(trace.StageEligibility, t)
	if len(cands) == 0 {
		return Decision{Reason: ReasonNoWorkers} // lines 9-10: reject
	}

	// Line 12: estimate the minimum outer payment.
	t = sp.StageStart()
	payment := m.quote(r, cands)
	sp.EndStage(trace.StagePricing, t)
	if payment > r.Value {
		// Lines 13-14: serving would lose money; reject. The request
		// still counts as cooperative-attempted for AcpRt.
		return Decision{CoopAttempted: true, Reason: ReasonUnprofitable}
	}

	// Lines 15-20: probe each eligible worker's willingness at v'.
	probes := len(cands)
	t = sp.StageStart()
	m.accepting = appendAccepting(m.accepting[:0], cands, payment, m.rng)
	sp.EndStage(trace.StageProbes, t)
	if len(m.accepting) == 0 {
		return Decision{CoopAttempted: true, Probes: probes, Reason: ReasonNoAcceptor} // line 26
	}

	// Lines 21-24: nearest accepting worker, claimed atomically.
	t = sp.StageStart()
	best, retries, ok := claimNearestAccepting(m.coop, m.accepting, r)
	sp.EndStage(trace.StageClaim, t)
	if !ok {
		return Decision{CoopAttempted: true, Probes: probes, ClaimRetries: retries, Reason: ReasonClaimsLost}
	}
	return Decision{
		Served:        true,
		CoopAttempted: true,
		Probes:        probes,
		ClaimRetries:  retries,
		Reason:        ReasonOuter,
		Assignment: core.Assignment{
			Request: r,
			Worker:  best.Worker,
			Payment: payment,
			Outer:   true,
		},
	}
}

// quote returns the outer payment to offer: the Algorithm 2 estimate, or
// the exact minimum under PaymentOracle.
func (m *DemCOM) quote(r *core.Request, cands []Candidate) float64 {
	group := m.scratch.Group(len(cands))
	for i, c := range cands {
		group[i] = c.History
	}
	if m.PaymentOracle {
		return pricing.ExactMinAcceptable(r.Value, group)
	}
	return estimatePayment(m.quoter, r.Value, group, m.rng, m.scratch)
}
