package online

import (
	"math"
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/pricing"
	"crossmatch/internal/workload"
)

// fakeCoop is a single lender platform exposing its pool to the matcher
// under test — a miniature of platform.Hub.
type fakeCoop struct {
	pool *Pool
	hist map[int64]*pricing.History
	// failFirstClaims makes the first n Claim calls fail, simulating a
	// concurrent claim by another platform.
	failFirstClaims int
}

func newFakeCoop() *fakeCoop {
	return &fakeCoop{pool: NewPool(nil), hist: map[int64]*pricing.History{}}
}

func (f *fakeCoop) addWorker(w *core.Worker, hist *pricing.History) {
	f.pool.Add(w)
	f.hist[w.ID] = hist
}

func (f *fakeCoop) EligibleOuter(r *core.Request) []Candidate {
	var out []Candidate
	for _, w := range f.pool.AppendCovering(nil, r) {
		out = append(out, Candidate{Worker: w, History: f.hist[w.ID]})
	}
	return out
}

func (f *fakeCoop) Claim(id int64) bool {
	if f.failFirstClaims > 0 {
		f.failFirstClaims--
		return false
	}
	return f.pool.Remove(id)
}

// runPlatform1 feeds the Example 1 stream into a matcher as platform 1
// sees it: platform-1 workers go to the matcher, platform-2 workers go
// to the coop lender (when provided).
func runPlatform1(t *testing.T, m Matcher, coop *fakeCoop) *Stats {
	t.Helper()
	s, err := core.ExampleOneStream()
	if err != nil {
		t.Fatal(err)
	}
	matching, stats := core.NewMatching(), &Stats{}
	for _, e := range s.Events() {
		switch e.Kind {
		case core.WorkerArrival:
			if e.Worker.Platform == 1 {
				m.Pool().Add(e.Worker)
			} else if coop != nil {
				h, herr := pricing.NewHistory(e.Worker.History)
				if herr != nil {
					t.Fatal(herr)
				}
				coop.addWorker(e.Worker, h)
			}
		case core.RequestArrival:
			d := arrive(m, e.Request)
			book(t, matching, stats, &d)
		}
	}
	if err := matching.Validate(); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	stats.Tally(matching)
	return stats
}

// book folds one decision as the engine does: a served assignment into
// the matching, the decision into the two counts a matching cannot
// hold. Stats.Tally reads the rest off the matching.
func book(t *testing.T, m *core.Matching, s *Stats, d *Decision) {
	t.Helper()
	s.Requests++
	if d.CoopAttempted {
		s.CoopAttempted++
	}
	if d.Served {
		if err := m.Add(d.Assignment); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTOTAGreedyExampleOne(t *testing.T) {
	m := NewTOTAGreedy()
	stats := runPlatform1(t, m, nil)
	// Online greedy on Example 1: w1->r1 (4), w2->r2 (9), r3 rejected,
	// w4->r4 (3), r5 rejected. Revenue 16, three served.
	if stats.Served != 3 {
		t.Errorf("Served = %d, want 3", stats.Served)
	}
	if math.Abs(stats.Revenue-16) > 1e-9 {
		t.Errorf("Revenue = %v, want 16", stats.Revenue)
	}
	if stats.ServedOuter != 0 || stats.CoopAttempted != 0 {
		t.Errorf("TOTA must never cooperate: %+v", stats)
	}
	if m.Name() != "TOTA" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestTOTAGreedyPicksNearest(t *testing.T) {
	m := NewTOTAGreedy()
	m.Pool().Add(poolWorker(1, 0, 3, 0, 5))
	m.Pool().Add(poolWorker(2, 0, 1, 0, 5))
	d := arrive(m, poolRequest(1, 10, 0, 0, 7))
	if !d.Served || d.Assignment.Worker.ID != 2 {
		t.Fatalf("decision = %+v, want worker 2", d)
	}
	// Worker 2 is consumed; next identical request gets worker 1.
	d = arrive(m, poolRequest(2, 11, 0, 0, 7))
	if !d.Served || d.Assignment.Worker.ID != 1 {
		t.Fatalf("second decision = %+v, want worker 1", d)
	}
	// Pool exhausted.
	if d := arrive(m, poolRequest(3, 12, 0, 0, 7)); d.Served {
		t.Fatal("served with empty pool")
	}
}

func TestGreedyRTThresholdRejectsBelow(t *testing.T) {
	// maxValue 9 -> theta = ceil(ln 10) = 3, k in {0,1,2}, threshold
	// e^k in {1, e, e^2}. Find a seed giving k=2 (threshold ~7.39).
	var m *GreedyRT
	for seed := int64(0); seed < 100; seed++ {
		c := NewGreedyRT(9, rand.New(rand.NewSource(seed)))
		if c.Threshold() > 7 {
			m = c
			break
		}
	}
	if m == nil {
		t.Fatal("no seed yielded the top threshold")
	}
	m.Pool().Add(poolWorker(1, 0, 0, 0, 5))
	if d := arrive(m, poolRequest(1, 10, 0, 0, 5)); d.Served {
		t.Error("value 5 below threshold served")
	}
	if d := arrive(m, poolRequest(2, 11, 0, 0, 9)); !d.Served {
		t.Error("value 9 above threshold rejected")
	}
	if m.Name() != "Greedy-RT" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestGreedyRTThresholdRange(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		m := NewGreedyRT(9, rand.New(rand.NewSource(seed)))
		th := m.Threshold()
		if th != 1 && math.Abs(th-math.E) > 1e-12 && math.Abs(th-math.E*math.E) > 1e-12 {
			t.Fatalf("threshold %v not in {1, e, e^2}", th)
		}
	}
	// Tiny maxValue still yields a sane threshold.
	m := NewGreedyRT(0.5, rand.New(rand.NewSource(1)))
	if m.Threshold() != 1 {
		t.Errorf("threshold = %v, want 1 (theta clamped to 1, k=0)", m.Threshold())
	}
}

func TestDemCOMInnerPriority(t *testing.T) {
	coop := newFakeCoop()
	// An outer worker sits right on the request; an inner worker is
	// farther. DemCOM must still use the inner worker (lines 3-6).
	coop.addWorker(&core.Worker{ID: 10, Arrival: 0, Loc: poolRequest(1, 10, 0, 0, 5).Loc, Radius: 5, Platform: 2},
		mustHistory([]float64{0.1}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(1)))
	m.Pool().Add(poolWorker(1, 0, 3, 0, 5))
	d := arrive(m, poolRequest(1, 10, 0, 0, 5))
	if !d.Served || d.Assignment.Outer || d.Assignment.Worker.ID != 1 {
		t.Fatalf("decision = %+v, want inner worker 1", d)
	}
	if d.CoopAttempted {
		t.Error("inner service must not count as cooperative attempt")
	}
}

func TestDemCOMNoCoopDegradesToTOTA(t *testing.T) {
	m := NewDemCOM(NoCoop{}, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(1)))
	stats := runPlatform1(t, m, nil)
	if math.Abs(stats.Revenue-16) > 1e-9 || stats.Served != 3 {
		t.Errorf("DemCOM with empty W_out: %+v, want TOTA's 3 served / 16 revenue", stats)
	}
}

func TestDemCOMExampleOneWithCheapLenders(t *testing.T) {
	coop := newFakeCoop()
	m := NewDemCOM(coop, pricing.MonteCarlo{Xi: 0.05, Eta: 0.3}, rand.New(rand.NewSource(3)))
	stats := runPlatform1(t, m, coop)
	// The three inner assignments (r1, r2, r4) are deterministic; r3 and
	// r5 become cooperative requests offered to w3 and w5. Acceptance of
	// the minimum payment is probabilistic — the paper itself reports
	// only ~17% acceptance for DemCOM — so we assert the invariants, not
	// a fixed outcome.
	if stats.ServedInner != 3 {
		t.Fatalf("ServedInner = %d, want 3 (stats %+v)", stats.ServedInner, stats)
	}
	if stats.CoopAttempted != 2 {
		t.Errorf("CoopAttempted = %d, want 2 (r3 and r5)", stats.CoopAttempted)
	}
	if stats.Revenue < 16 {
		t.Errorf("Revenue = %v, must be at least TOTA's 16", stats.Revenue)
	}
	if stats.ServedOuter > 0 {
		if stats.Revenue <= 16 {
			t.Errorf("Revenue = %v with outer services, must exceed 16", stats.Revenue)
		}
		if r := stats.MeanPaymentRate(); r <= 0 || r > 1 {
			t.Errorf("MeanPaymentRate = %v, want in (0,1]", r)
		}
	}
	if err := validateStats(stats); err != nil {
		t.Error(err)
	}
	// Across many seeds, the outer workers must accept at least once —
	// the cooperation path demonstrably serves extra requests.
	servedOuterEver := false
	for seed := int64(0); seed < 20 && !servedOuterEver; seed++ {
		c2 := newFakeCoop()
		m2 := NewDemCOM(c2, pricing.MonteCarlo{Xi: 0.05, Eta: 0.3}, rand.New(rand.NewSource(seed)))
		if s2 := runPlatform1(t, m2, c2); s2.ServedOuter > 0 {
			servedOuterEver = true
		}
	}
	if !servedOuterEver {
		t.Error("cooperation never succeeded across 20 seeds")
	}
}

func TestDemCOMRejectsUnaffordableCooperation(t *testing.T) {
	coop := newFakeCoop()
	// The only outer worker never accepts below 100; request is worth 5.
	coop.addWorker(&core.Worker{ID: 10, Arrival: 0, Loc: poolRequest(1, 10, 0, 0, 5).Loc, Radius: 5, Platform: 2},
		mustHistory([]float64{100}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(1)))
	d := arrive(m, poolRequest(1, 10, 0, 0, 5))
	if d.Served {
		t.Fatalf("served a money-losing request: %+v", d)
	}
	if !d.CoopAttempted {
		t.Error("rejection after pricing must still count as cooperative attempt")
	}
	if coop.pool.Len() != 1 {
		t.Error("outer worker must remain available after rejection")
	}
}

func TestDemCOMPaymentOracle(t *testing.T) {
	coop := newFakeCoop()
	coop.addWorker(&core.Worker{ID: 10, Arrival: 0, Loc: poolRequest(1, 10, 0, 0, 8).Loc, Radius: 5, Platform: 2},
		mustHistory([]float64{2, 6}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(5)))
	m.PaymentOracle = true
	d := arrive(m, poolRequest(1, 10, 0, 0, 8))
	if !d.Served {
		t.Skip("oracle payment 2 has acceptance probability 0.5; this seed declined")
	}
	if d.Assignment.Payment != 2 {
		t.Errorf("oracle payment = %v, want exactly 2 (min history)", d.Assignment.Payment)
	}
}

func TestDemCOMClaimRaceFallsToNextWorker(t *testing.T) {
	coop := newFakeCoop()
	loc := poolRequest(1, 10, 0, 0, 8).Loc
	near := &core.Worker{ID: 10, Arrival: 0, Loc: loc, Radius: 5, Platform: 2}
	far := &core.Worker{ID: 11, Arrival: 0, Loc: geo.Point{X: loc.X + 1, Y: loc.Y}, Radius: 5, Platform: 2}
	always := mustHistory([]float64{0.01})
	coop.addWorker(near, always)
	coop.addWorker(far, always)
	coop.failFirstClaims = 1 // the nearest is "taken" by another platform
	m := NewDemCOM(coop, pricing.MonteCarlo{Xi: 0.1, Eta: 0.3}, rand.New(rand.NewSource(2)))
	d := arrive(m, poolRequest(1, 10, 0, 0, 8))
	if !d.Served || d.Assignment.Worker.ID != 11 {
		t.Fatalf("decision = %+v, want fallback to worker 11", d)
	}
}

func TestRamCOMThresholdDrawnFromTheta(t *testing.T) {
	// maxValue 9 -> theta = 3 -> threshold in {e, e^2, e^3}.
	seen := map[int]bool{}
	for seed := int64(0); seed < 60; seed++ {
		m := NewRamCOM(9, NoCoop{}, rand.New(rand.NewSource(seed)))
		th := m.Threshold()
		matched := false
		for k := 1; k <= 3; k++ {
			if math.Abs(th-math.Exp(float64(k))) < 1e-9 {
				seen[k] = true
				matched = true
			}
		}
		if !matched {
			t.Fatalf("threshold %v not in {e, e^2, e^3}", th)
		}
	}
	for k := 1; k <= 3; k++ {
		if !seen[k] {
			t.Errorf("k=%d never drawn across 60 seeds", k)
		}
	}
}

func TestRamCOMLowValueBypassesInnerWorkers(t *testing.T) {
	// Pick a seed with threshold >= e^2 so a value-5 request is "small".
	var m *RamCOM
	coop := newFakeCoop()
	for seed := int64(0); seed < 100; seed++ {
		c := NewRamCOM(20, coop, rand.New(rand.NewSource(seed)))
		if c.Threshold() > 7 {
			m = c
			break
		}
	}
	if m == nil {
		t.Fatal("no high-threshold seed found")
	}
	m.Pool().Add(poolWorker(1, 0, 0, 0, 5)) // free inner worker
	// With the default inner fallback, an empty coop view falls back to
	// the idle inner worker rather than rejecting.
	d := arrive(m, poolRequest(1, 10, 0, 0, 5))
	if !d.Served || d.Assignment.Outer {
		t.Fatalf("fallback should serve inner: %+v", d)
	}

	// Literal Algorithm 3 (NoInnerFallback): the low-value request must
	// NOT use the inner worker and is rejected outright.
	m.NoInnerFallback = true
	m.Pool().Add(poolWorker(2, 0, 0, 0, 5))
	d = arrive(m, poolRequest(2, 11, 0, 0, 5))
	if d.Served {
		t.Fatalf("low-value request served despite NoInnerFallback: %+v", d)
	}
	if m.Pool().Len() != 1 {
		t.Error("inner worker consumed by low-value request")
	}
}

func TestRamCOMHighValueFallsThroughToOuter(t *testing.T) {
	coop := newFakeCoop()
	var m *RamCOM
	for seed := int64(0); seed < 100; seed++ {
		c := NewRamCOM(9, coop, rand.New(rand.NewSource(seed)))
		if math.Abs(c.Threshold()-math.E) < 1e-9 {
			m = c
			break
		}
	}
	if m == nil {
		t.Fatal("no threshold-e seed found")
	}
	// No inner workers; outer worker accepts anything.
	coop.addWorker(&core.Worker{ID: 10, Arrival: 0, Loc: poolRequest(1, 10, 0, 0, 8).Loc, Radius: 5, Platform: 2},
		mustHistory([]float64{0.5, 1, 2}))
	d := arrive(m, poolRequest(1, 10, 0, 0, 8)) // 8 > e: high value
	if !d.Served || !d.Assignment.Outer {
		t.Fatalf("decision = %+v, want outer service (Example 3 behaviour)", d)
	}
	// Expected-revenue pricing picks a history breakpoint.
	pay := d.Assignment.Payment
	if pay != 0.5 && pay != 1 && pay != 2 {
		t.Errorf("payment %v is not an acceptance-curve breakpoint", pay)
	}
}

func TestRamCOMExampleOneBeatsNothing(t *testing.T) {
	coop := newFakeCoop()
	m := NewRamCOM(9, coop, rand.New(rand.NewSource(4)))
	stats := runPlatform1(t, m, coop)
	if err := validateStats(stats); err != nil {
		t.Error(err)
	}
	if stats.Served == 0 {
		t.Error("RamCOM served nothing on Example 1")
	}
}

func validateStats(s *Stats) error {
	if s.Served != s.ServedInner+s.ServedOuter {
		return errStats("served split", s)
	}
	if s.ServedOuter > s.CoopAttempted {
		return errStats("outer > attempted", s)
	}
	if s.Revenue < 0 || s.PaymentSum < 0 {
		return errStats("negative money", s)
	}
	return nil
}

type statsErr struct {
	msg string
	s   Stats
}

func (e statsErr) Error() string { return e.msg }

func errStats(msg string, s *Stats) error { return statsErr{msg: msg, s: *s} }

// TestStatsObserve: Tally reads the six served fields off a matching
// with one inner and one outer assignment; the decision counts are the
// caller's.
func TestStatsObserve(t *testing.T) {
	r1, r2 := poolRequest(1, 10, 0, 0, 10), poolRequest(2, 10, 0, 0, 10)
	m := core.NewMatching()
	if err := m.Add(core.Assignment{Request: r1, Worker: poolWorker(1, 0, 0, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	outerW := &core.Worker{ID: 2, Arrival: 0, Loc: r2.Loc, Radius: 5, Platform: 2}
	if err := m.Add(core.Assignment{Request: r2, Worker: outerW, Payment: 4, Outer: true}); err != nil {
		t.Fatal(err)
	}
	// Four decisions: the two served, a rejected cooperative one and a
	// plain rejection.
	s := &Stats{Requests: 4, CoopAttempted: 2}
	s.Tally(m)

	if s.Requests != 4 || s.Served != 2 || s.ServedInner != 1 || s.ServedOuter != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.CoopAttempted != 2 {
		t.Errorf("CoopAttempted = %d, want 2", s.CoopAttempted)
	}
	if s.Revenue != m.Revenue() || math.Abs(s.Revenue-16) > 1e-9 { // 10 + (10-4)
		t.Errorf("Revenue = %v, want 16, the matching's %v", s.Revenue, m.Revenue())
	}
	if s.PaymentSum != 4 {
		t.Errorf("PaymentSum = %v, want 4", s.PaymentSum)
	}
	if got := s.AcceptanceRatio(); got != 0.5 {
		t.Errorf("AcceptanceRatio = %v, want 0.5", got)
	}
	if got := s.MeanPaymentRate(); got != 0.4 {
		t.Errorf("MeanPaymentRate = %v, want 0.4", got)
	}
	// A second Tally sets the fields again rather than adding to them.
	s.Tally(m)
	if s.Served != 2 || s.ServedOuter != 1 || s.PaymentRate != 0.4 {
		t.Errorf("a second Tally added up: %+v", s)
	}
}

// TestStatsObserveZeroValueRequest guards the payment-rate division: a
// degenerate zero-value request never reaches Stats as an outer
// assignment, because the Matching refuses a payment outside (0, v], so
// PaymentRate (and everything aggregated from it) stays finite.
func TestStatsObserveZeroValueRequest(t *testing.T) {
	r := poolRequest(1, 10, 0, 0, 0) // value 0
	w := &core.Worker{ID: 2, Arrival: 0, Loc: r.Loc, Radius: 5, Platform: 2}
	m := core.NewMatching()
	for _, pay := range []float64{0, 1e-12} {
		if err := m.Add(core.Assignment{Request: r, Worker: w, Payment: pay, Outer: true}); err == nil {
			t.Fatalf("the matching took an outer payment %v on a zero-value request", pay)
		}
	}
	s := &Stats{Requests: 1, CoopAttempted: 1}
	s.Tally(m)
	if s.PaymentRate != 0 || s.ServedOuter != 0 {
		t.Errorf("PaymentRate = %v over %d outer assignments, want 0 over 0", s.PaymentRate, s.ServedOuter)
	}
	if got := s.MeanPaymentRate(); got != 0 {
		t.Errorf("MeanPaymentRate = %v, want 0", got)
	}
}

// TestRamCOMQuoteAgreesWithDemCOMOnMinPayment white-boxes the ablation
// pricing path: with MinPaymentPricing, RamCOM must treat the estimator
// exactly as DemCOM does — any estimate is a quote, including zero, and
// the caller rejects only when it exceeds the request's value. (The old
// est > 0 gate silently rejected where DemCOM would have quoted.)
func TestRamCOMQuoteAgreesWithDemCOMOnMinPayment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewRamCOM(100, nil, rng)
	m.MinPaymentPricing = true
	r := poolRequest(1, 10, 0, 0, 50)
	hist, err := pricing.NewHistory([]float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	group := []*pricing.History{hist}
	payment, ok := m.quote(r, group)
	if !ok {
		t.Fatal("MinPaymentPricing quote rejected a serviceable group")
	}
	est, err := pricing.NewQuoter(m.MC).MinOuterPayment(r.Value, group, rand.New(rand.NewSource(4)), pricing.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// Same estimator, so the quote is the estimate — never gated on
	// est > 0. (rng state differs between the two calls, so compare
	// plausibility, not equality.)
	if payment <= 0 || payment > r.Value {
		t.Errorf("quote %v outside (0, value]; estimator alone gave %v", payment, est)
	}
	// The degenerate empty group quotes above the request value in both
	// algorithms, so the caller's payment > value check rejects it; the
	// quote itself must not be the place that filters it.
	if p, ok := m.quote(r, nil); !ok {
		t.Error("empty-group quote rejected at the wrong layer")
	} else if p <= r.Value {
		t.Errorf("empty-group quote %v should exceed the value %v", p, r.Value)
	}
}

// TestClaimRetriesCounted checks that claimNearestAccepting reports how
// many claims it lost before settling, and that the count surfaces in
// the Decision for the metrics pipeline.
func TestClaimRetriesCounted(t *testing.T) {
	coop := newFakeCoop()
	r := poolRequest(1, 10, 0, 0, 20)
	for i := int64(1); i <= 3; i++ {
		w := &core.Worker{ID: i, Arrival: 0, Loc: geo.Point{X: float64(i)}, Radius: 10, Platform: 2}
		hist, err := pricing.NewHistory([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		coop.addWorker(w, hist)
	}
	coop.failFirstClaims = 2
	cands := coop.EligibleOuter(r)
	if len(cands) != 3 {
		t.Fatalf("eligible = %d, want 3", len(cands))
	}
	best, retries, ok := claimNearestAccepting(coop, cands, r)
	if !ok {
		t.Fatal("claim failed with a claimable candidate remaining")
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
	// Nearest two claims failed; the third-nearest worker wins.
	if best.Worker.ID != 3 {
		t.Errorf("claimed worker %d, want 3 (nearest two lost)", best.Worker.ID)
	}
}

// arrive is RequestArrives into a fresh Decision.
func arrive(m Matcher, r *core.Request) Decision {
	var d Decision
	m.RequestArrives(r, &d)
	return d
}

// TestRequestArrivesAssignsWholeDecision: a matcher decides into the
// caller's Decision and must leave nothing of what it held before, since
// the engine decides every request into the same one. Two matchers
// built alike decide the same stream, one into a fresh Decision per
// request and one into a reused Decision filled with junk before each;
// every pair of decisions must be equal. The stream reaches the inner,
// outer, no-worker, unprofitable, no-acceptor, claims-lost, fallback and
// below-threshold paths between the five matchers.
func TestRequestArrivesAssignsWholeDecision(t *testing.T) {
	cfg, err := workload.Synthetic(600, 120, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	junk := Decision{
		Assignment: core.Assignment{Request: &core.Request{ID: -1}, Worker: &core.Worker{ID: -1}, Payment: -1, Outer: true},
		Served:     true, Reason: "junk", CoopAttempted: true, Probes: -1, ClaimRetries: -1,
	}
	builds := map[string]func(coop CoopView, rng *rand.Rand) Matcher{
		"TOTA":      func(CoopView, *rand.Rand) Matcher { return NewTOTAGreedy() },
		"Greedy-RT": func(_ CoopView, rng *rand.Rand) Matcher { return NewGreedyRT(s.MaxValue(), rng) },
		"DemCOM":    func(coop CoopView, rng *rand.Rand) Matcher { return NewDemCOM(coop, pricing.DefaultMonteCarlo, rng) },
		"RamCOM":    func(coop CoopView, rng *rand.Rand) Matcher { return NewRamCOM(s.MaxValue(), coop, rng) },
		"BatchCOM": func(coop CoopView, rng *rand.Rand) Matcher {
			return NewBatchCOM(coop, pricing.DefaultMonteCarlo, rng, 0, 0)
		},
	}
	const seed = 3
	seen := map[Reason]int{}
	for name, build := range builds {
		var ms [2]Matcher
		var coops [2]*fakeCoop
		for i := range ms {
			coops[i] = newFakeCoop()
			coops[i].failFirstClaims = 3
			ms[i] = build(coops[i], rand.New(rand.NewSource(seed)))
		}
		reused := junk
		for _, e := range s.Events() {
			if e.Kind == core.WorkerArrival {
				for i, m := range ms {
					if e.Worker.Platform == 1 {
						m.Pool().Add(e.Worker)
					} else {
						coops[i].addWorker(e.Worker, mustHistory(e.Worker.History))
					}
				}
				continue
			}
			fresh := arrive(ms[0], e.Request)
			reused = junk
			ms[1].RequestArrives(e.Request, &reused)
			if reused != fresh {
				t.Fatalf("%s, request %d: decided into a used Decision %+v, into a fresh one %+v", name, e.Request.ID, reused, fresh)
			}
			seen[fresh.Reason]++
		}
	}
	for _, r := range []Reason{ReasonInner, ReasonOuter, ReasonNoWorkers, ReasonUnprofitable, ReasonNoAcceptor,
		ReasonClaimsLost, ReasonInnerFallback, ReasonBelowThreshold, ReasonBuffered} {
		if seen[r] == 0 {
			t.Errorf("no decision ended %q: the stream does not reach that path (reached %v)", r, seen)
		}
	}
}

// mustHistory is pricing.NewHistory for static test fixtures; it panics
// on error.
func mustHistory(values []float64) *pricing.History {
	h, err := pricing.NewHistory(values)
	if err != nil {
		panic(err)
	}
	return h
}
