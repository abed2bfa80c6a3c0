// Package online implements the online matching algorithms of the paper:
//
//   - TOTAGreedy — the traditional online task assignment baseline [9]:
//     serve each incoming request with the nearest available inner
//     worker, never cooperating across platforms.
//   - GreedyRT — the randomized-threshold variant of [9] used in the
//     competitive-ratio study.
//   - DemCOM — deterministic cross online matching (Algorithm 1 + the
//     Monte-Carlo minimum outer payment of Algorithm 2).
//   - RamCOM — randomized cross online matching (Algorithm 3): a random
//     value threshold steers large-value requests to inner workers and
//     prices cooperative requests at the maximum expected revenue of
//     Definition 4.1.
//
// A matcher consumes one platform's arrival events. Inner workers are
// held in a Pool owned by the matcher's platform; outer workers are
// reached through the CoopView interface, implemented by the
// platform.Hub, which shares unoccupied workers across platforms and
// makes claims atomic (an outer worker assigned by any platform
// disappears from every waiting list, per Definition 2.3).
package online

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
	"crossmatch/internal/trace"
)

// Candidate is an outer worker eligible for a cooperative request,
// paired with its acceptance history. History points into the owner
// Pool's slot and is valid until that pool's next Add, which may reuse
// the slot.
type Candidate struct {
	Worker  *core.Worker
	History *pricing.History
}

// CoopView is the matcher's window onto other platforms' unoccupied
// workers. Implementations must apply the time and range constraints of
// Definition 2.6 in EligibleOuter and must make Claim atomic across
// platforms.
type CoopView interface {
	// EligibleOuter returns the outer workers able to serve r under all
	// Definition 2.6 constraints, i.e. unoccupied workers of other
	// platforms whose service range covers r and who arrived before it.
	// The returned slice is only valid until the next EligibleOuter call
	// on the same view: implementations reuse the backing buffer to keep
	// the hottest cooperative path allocation-free.
	EligibleOuter(r *core.Request) []Candidate
	// Claim attempts to take the worker for an assignment, removing it
	// from every platform's waiting list. It reports false when the
	// worker is no longer waiting or the claim failed (an injected claim
	// fault, an open breaker).
	Claim(workerID int64) bool
}

// NoCoop is a CoopView with no cooperative platforms: COM degenerates to
// TOTA when W_out is empty (used by the degradation ablation).
type NoCoop struct{}

// EligibleOuter implements CoopView.
func (NoCoop) EligibleOuter(*core.Request) []Candidate { return nil }

// Claim implements CoopView.
func (NoCoop) Claim(int64) bool { return false }

// Reason tags how a decision ended; it is the outcome vocabulary of the
// per-request tracing layer (internal/trace) and reads as the span's
// "outcome" field in exports.
type Reason string

const (
	// ReasonInner — served by the nearest (or, RamCOM high-value branch,
	// a random) inner worker.
	ReasonInner Reason = "inner"
	// ReasonInnerFallback — RamCOM's low-value cooperative path failed
	// and an idle inner worker served the request instead.
	ReasonInnerFallback Reason = "inner-fallback"
	// ReasonOuter — served by a claimed outer worker at payment v'.
	ReasonOuter Reason = "outer"
	// ReasonNoWorkers — no available inner worker and no eligible outer
	// candidate.
	ReasonNoWorkers Reason = "no-workers"
	// ReasonUnprofitable — the outer payment quote exceeded the request
	// value (Algorithm 1 lines 13-14).
	ReasonUnprofitable Reason = "unprofitable"
	// ReasonNoAcceptor — every probed candidate declined the payment.
	ReasonNoAcceptor Reason = "no-acceptor"
	// ReasonClaimsLost — every accepting candidate was claimed by
	// another platform first.
	ReasonClaimsLost Reason = "claims-lost"
	// ReasonBelowThreshold — Greedy-RT rejected the request for falling
	// below its randomized value threshold.
	ReasonBelowThreshold Reason = "below-threshold"
	// ReasonBuffered — a windowed matcher (BatchCOM) buffered the request
	// for a later batched decision; the placeholder Decision carries
	// Deferred=true and no outcome fields.
	ReasonBuffered Reason = "buffered"
	// ReasonWindowLost — the windowed solver had feasible workers for the
	// request but assigned every one of them to other requests in the
	// same window.
	ReasonWindowLost Reason = "window-lost"
)

// Decision records the outcome of one request arrival.
type Decision struct {
	Assignment core.Assignment
	Served     bool
	// Reason tags how the decision ended (see the Reason constants);
	// the tracing layer exports it as the span outcome.
	Reason Reason
	// CoopAttempted is true when the request was offered to outer
	// workers (it became a "cooperative request"), regardless of
	// whether any accepted. AcpRt in the evaluation is
	// served-cooperative / attempted-cooperative.
	CoopAttempted bool
	// Probes counts the worker acceptance probes issued while deciding
	// this request (Algorithm 1 lines 17-20 / Algorithm 3's reuse of
	// them); the observability layer aggregates it across runs.
	Probes int
	// ClaimRetries counts cooperative claims lost while deciding this
	// request: each one is a retry of Algorithm 1's claim loop against
	// the next-nearest accepting worker. Zero unless a claim fails (an
	// injected claim fault).
	ClaimRetries int
	// Deferred is true when the matcher buffered the request for a later
	// windowed decision instead of deciding it immediately (BatchCOM).
	// No outcome field is meaningful on a deferred Decision and it must
	// not be folded into Stats; the real Decision arrives in a
	// WindowDecision when the window flushes.
	Deferred bool
}

// Matcher is an online matching algorithm bound to one platform.
type Matcher interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Pool is the platform's waiting list: the engine adds arriving
	// workers to it, and the hub shares it with cooperating platforms.
	Pool() *Pool
	// RequestArrives decides the fate of an incoming request
	// immediately (the online constraint): serve it with an inner
	// worker, serve it with a claimed outer worker, or reject it. The
	// decision is written into d, the caller's, as one whole struct on
	// every path, so nothing of what d held before survives; the engine
	// decides every request into the same Decision instead of copying
	// one up the call chain.
	RequestArrives(r *core.Request, d *Decision)
}

// WindowDecision is one request's final outcome from a window flush:
// the Decision a windowed matcher deferred at arrival time, stamped
// with the virtual time the window closed.
type WindowDecision struct {
	Request *core.Request
	// At is the virtual flush time — the decision's logical timestamp
	// (a recycled worker minted from it re-arrives At+ServiceTicks).
	At core.Time
	Decision
}

// WindowedMatcher is a Matcher that defers request decisions into
// virtual-time windows (BatchCOM). RequestArrives returns a Deferred
// placeholder; the simulation layer drives the matcher's clock through
// Advance before every event and reads the batched decisions back.
//
// The contract that keeps windowed runs deterministic: Advance must be
// a pure function of the set of buffered requests and t — independent
// of the order same-time requests were buffered in — and the returned
// slice is sorted by request ID. The slice is only valid until the next
// Advance call (implementations reuse the backing buffer).
type WindowedMatcher interface {
	Matcher
	// NextFlush returns the virtual time the open window is due to
	// flush, and whether a window is open at all.
	NextFlush() (core.Time, bool)
	// Advance moves the matcher's clock to t, flushing the open window
	// when its due time is at or before t; nil when nothing flushed.
	Advance(t core.Time) []WindowDecision
}

// Stats tallies a matcher's outcomes; the simulation layer aggregates
// them into the paper's effectiveness metrics.
type Stats struct {
	Requests      int     // requests seen
	Served        int     // requests served (inner + outer)
	ServedInner   int     // requests served by inner workers
	ServedOuter   int     // cooperative requests accepted (|CoR| contribution)
	CoopAttempted int     // requests offered to outer workers
	Revenue       float64 // total platform revenue (Equation 1)
	PaymentSum    float64 // sum of outer payments v'
	PaymentRate   float64 // sum of v'/v over outer assignments
}

// Observe folds one decision into the stats.
func (s *Stats) Observe(d *Decision) {
	s.Requests++
	if d.CoopAttempted {
		s.CoopAttempted++
	}
	if !d.Served {
		return
	}
	s.Served++
	s.Revenue += d.Assignment.Revenue()
	if d.Assignment.Outer {
		s.ServedOuter++
		s.PaymentSum += d.Assignment.Payment
		// Guard the rate against degenerate zero-value requests: 0/0
		// would poison every aggregate built on PaymentRate with NaN.
		if v := d.Assignment.Request.Value; v > 0 {
			s.PaymentRate += d.Assignment.Payment / v
		}
	} else {
		s.ServedInner++
	}
}

// AcceptanceRatio returns served-cooperative over attempted-cooperative
// (the paper's AcpRt), or 0 when no cooperation was attempted.
func (s *Stats) AcceptanceRatio() float64 {
	if s.CoopAttempted == 0 {
		return 0
	}
	return float64(s.ServedOuter) / float64(s.CoopAttempted)
}

// MeanPaymentRate returns the average v'/v over outer assignments (the
// paper's outer payment rate), or 0 when there were none.
func (s *Stats) MeanPaymentRate() float64 {
	if s.ServedOuter == 0 {
		return 0
	}
	return s.PaymentRate / float64(s.ServedOuter)
}

// waiting is what every matcher is built on: its platform's inner
// waiting list and the optional decision tracer, on which the matcher
// records stage laps of the span the engine opened.
type waiting struct {
	pool *Pool
	tr   *trace.Recorder
}

// Pool implements Matcher.
func (m *waiting) Pool() *Pool { return m.pool }

// BindTrace attaches the per-request decision tracer (nil detaches).
func (m *waiting) BindTrace(rc *trace.Recorder) { m.tr = rc }

// cooperative is what the COM matchers add to waiting: the view of the
// partner platforms' workers, the pricing quoter with its scratch, and
// the rng that drives payment sampling and acceptance probes.
type cooperative struct {
	waiting
	coop    CoopView
	quoter  *pricing.TableQuoter
	scratch *pricing.Scratch
	rng     *rand.Rand
	// accepting is the reused probe-result scratch consumed in place by
	// the claim loop; one goroutine drives a matcher, so reuse across
	// requests is race-free.
	accepting []Candidate
}

func newCooperative(coop CoopView, mc pricing.MonteCarlo, rng *rand.Rand) cooperative {
	if coop == nil {
		coop = NoCoop{}
	}
	return cooperative{
		waiting: waiting{pool: NewPool(nil)},
		coop:    coop,
		quoter:  pricing.NewQuoter(mc),
		scratch: pricing.NewScratch(),
		rng:     rng,
	}
}

// PricingStats exposes the quoter's cumulative counters.
func (m *cooperative) PricingStats() pricing.Stats { return m.quoter.Stats() }

// assignOuter is Algorithm 1's outer-assignment block (lines 8-26),
// which Algorithm 3 calls with its own price: quote names the payment
// to offer the eligible workers, whose histories are group; ok=false
// means no payment is worth offering. The decision is written into d.
func (m *cooperative) assignOuter(r *core.Request, quote func(r *core.Request, group []*pricing.History) (payment float64, ok bool), d *Decision) {
	// Line 8: eligible outer workers.
	t := m.tr.StageStart()
	cands := m.coop.EligibleOuter(r)
	m.tr.EndStage(trace.StageEligibility, t)
	if len(cands) == 0 {
		*d = Decision{Reason: ReasonNoWorkers} // lines 9-10: reject
		return
	}

	// Line 12: price the cooperative request.
	t = m.tr.StageStart()
	group := m.scratch.Group(len(cands))
	for i, c := range cands {
		group[i] = c.History
	}
	payment, ok := quote(r, group)
	m.tr.EndStage(trace.StagePricing, t)
	if !ok || payment > r.Value {
		// Lines 13-14: serving would lose money; reject. The request
		// still counts as cooperative-attempted for AcpRt.
		*d = Decision{CoopAttempted: true, Reason: ReasonUnprofitable}
		return
	}

	// Lines 15-20: probe each eligible worker's willingness at v'.
	probes := len(cands)
	t = m.tr.StageStart()
	m.accepting = appendAccepting(m.accepting[:0], cands, payment, m.rng)
	m.tr.EndStage(trace.StageProbes, t)
	if len(m.accepting) == 0 {
		*d = Decision{CoopAttempted: true, Probes: probes, Reason: ReasonNoAcceptor} // line 26
		return
	}

	// Lines 21-24: nearest accepting worker, claimed atomically.
	t = m.tr.StageStart()
	best, retries, ok := claimNearestAccepting(m.coop, m.accepting, r)
	m.tr.EndStage(trace.StageClaim, t)
	if !ok {
		*d = Decision{CoopAttempted: true, Probes: probes, ClaimRetries: retries, Reason: ReasonClaimsLost}
		return
	}
	*d = Decision{
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

// appendAccepting samples each candidate's willingness to serve at the
// given payment (Algorithm 1, lines 17-20) and appends the accepting
// subset to dst, preserving order. Callers pass a matcher-owned scratch
// slice (reset with dst[:0]) so the hottest cooperative path performs
// no per-request allocation; rng consumption is one draw per candidate,
// identical to the previous fresh-slice implementation.
func appendAccepting(dst, cands []Candidate, payment float64, rng *rand.Rand) []Candidate {
	for _, c := range cands {
		if c.History.Accepts(payment, rng) {
			dst = append(dst, c)
		}
	}
	return dst
}

// mcGroupCap bounds the candidate group handed to the Monte-Carlo
// estimator. The minimum outer payment is governed by the cheapest
// acceptance frontiers; candidates whose history floors are far above
// the group's minimum almost never flip a sampled instance, so keeping
// the cap-cheapest candidates leaves the estimate statistically
// unchanged while bounding per-request cost on dense worker pools (the
// full candidate set is still probed for actual acceptance afterwards).
const mcGroupCap = 24

// estimatePayment is the Algorithm 2 minimum outer payment estimate
// DemCOM and BatchCOM quote from: group (reordered in place) is cut to
// its mcGroupCap cheapest histories, ascending by Min, and handed to the
// quoter.
func estimatePayment(q *pricing.TableQuoter, value float64, group []*pricing.History, rng *rand.Rand, s *pricing.Scratch) float64 {
	if len(group) > mcGroupCap {
		if !selectCheapest(group) {
			// The documented fallback: a different-value tie on Min
			// decides what the quote sees, so pdqsort's order decides it.
			slices.SortFunc(group, func(a, b *pricing.History) int { return cmp.Compare(a.Min(), b.Min()) })
		}
		group = group[:mcGroupCap]
	}
	est, err := q.MinOuterPayment(value, group, rng, s)
	if err != nil {
		// Only reachable with invalid configuration; fail safe by
		// rejecting cooperation (estimate above value).
		return value * 2
	}
	return est
}

// minKey is a group member with its Min read once.
type minKey struct {
	min float64
	h   *pricing.History
}

// selectCheapest writes the mcGroupCap members of group (longer than
// that) with the smallest Min to group[:mcGroupCap] in ascending order,
// by bounded insertion, and reports true. The quote reads only the
// members' values, in order, so the result is the one a full sort by
// Min gives whenever every tie on Min that can reach the quote — two
// kept members, or one kept and one cut — is between identical values
// (repeat appearances share one slice). Otherwise it reports false and
// leaves group as it was, for the caller to sort as it always has.
func selectCheapest(group []*pricing.History) bool {
	const last = mcGroupCap - 1
	var keys [mcGroupCap]minKey
	for i, h := range group[:mcGroupCap] {
		k, j := minKey{h.Min(), h}, i
		for ; j > 0 && keys[j-1].min > k.min; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	// Every member cut is at or above the final cut keys[last].min, so
	// only the cheapest of them can tie across it: keep one of those
	// and whether any other at that Min has different values.
	cutMin, mixed := math.Inf(1), false
	var cutRep *pricing.History
	cut := func(k minKey) {
		switch {
		case k.min < cutMin:
			cutMin, cutRep, mixed = k.min, k.h, false
		case k.min == cutMin && !mixed:
			mixed = !sameValues(k.h, cutRep)
		}
	}
	for _, h := range group[mcGroupCap:] {
		k := minKey{h.Min(), h}
		if k.min >= keys[last].min {
			cut(k)
			continue
		}
		cut(keys[last])
		j := last
		for ; j > 0 && keys[j-1].min > k.min; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	for i := 1; i < mcGroupCap; i++ {
		if keys[i].min == keys[i-1].min && !sameValues(keys[i].h, keys[i-1].h) {
			return false
		}
	}
	if cutMin == keys[last].min && (mixed || !sameValues(cutRep, keys[last].h)) {
		return false
	}
	for i, k := range keys {
		group[i] = k.h
	}
	return true
}

// sameValues reports whether two histories hold the same values: the
// same slice, or equal ones.
func sameValues(a, b *pricing.History) bool {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	return len(av) == 0 || &av[0] == &bv[0] || slices.Equal(av, bv)
}

// nearestIndex returns the index of the candidate whose worker is
// closest to the request, ties broken by smallest worker ID. The result
// is independent of candidate order (the minimum under the strict
// (distance, ID) lexicographic order, no two IDs equal), which is what
// lets the claim loop swap-delete without perturbing selection order.
// Callers guarantee len(cands) > 0.
func nearestIndex(cands []Candidate, r *core.Request) int {
	best := 0
	bestD := cands[0].Worker.Loc.Dist2(r.Loc)
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		d := c.Worker.Loc.Dist2(r.Loc)
		if d < bestD || (d == bestD && c.Worker.ID < cands[best].Worker.ID) {
			best, bestD = i, d
		}
	}
	return best
}

// claimNearestAccepting walks accepting candidates from nearest to
// farthest, claiming the first still available (Algorithm 1, lines
// 21-24; a claim can fail under an injected fault). It also reports how
// many claims were lost on the way (see
// Decision.ClaimRetries).
//
// cands must be owned by the caller (the matchers pass their accepting
// scratch): lost claims are removed in place by swap-delete, replacing
// the previous per-request copy and O(n²) scan-and-delete. Selection
// order is unchanged — each round still picks the exact
// nearest-then-smallest-ID candidate among those remaining, an order-
// independent choice.
func claimNearestAccepting(coop CoopView, cands []Candidate, r *core.Request) (Candidate, int, bool) {
	retries := 0
	for len(cands) > 0 {
		bi := nearestIndex(cands, r)
		best := cands[bi]
		if coop.Claim(best.Worker.ID) {
			return best, retries, true
		}
		// The claim failed; drop the candidate and try the next nearest.
		retries++
		cands[bi] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return Candidate{}, retries, false
}
