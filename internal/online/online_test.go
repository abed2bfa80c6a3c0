package online

import (
	"math"
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/pricing"
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
	stats := &Stats{}
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
			d := m.RequestArrives(e.Request)
			if d.Served {
				if err := d.Assignment.Validate(); err != nil {
					t.Fatalf("invalid assignment: %v", err)
				}
			}
			stats.Observe(d)
		}
	}
	return stats
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
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 7))
	if !d.Served || d.Assignment.Worker.ID != 2 {
		t.Fatalf("decision = %+v, want worker 2", d)
	}
	// Worker 2 is consumed; next identical request gets worker 1.
	d = m.RequestArrives(poolRequest(2, 11, 0, 0, 7))
	if !d.Served || d.Assignment.Worker.ID != 1 {
		t.Fatalf("second decision = %+v, want worker 1", d)
	}
	// Pool exhausted.
	if d := m.RequestArrives(poolRequest(3, 12, 0, 0, 7)); d.Served {
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
	if d := m.RequestArrives(poolRequest(1, 10, 0, 0, 5)); d.Served {
		t.Error("value 5 below threshold served")
	}
	if d := m.RequestArrives(poolRequest(2, 11, 0, 0, 9)); !d.Served {
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
		pricing.MustHistory([]float64{0.1}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(1)))
	m.Pool().Add(poolWorker(1, 0, 3, 0, 5))
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 5))
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
		pricing.MustHistory([]float64{100}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(1)))
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 5))
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
		pricing.MustHistory([]float64{2, 6}))
	m := NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(5)))
	m.PaymentOracle = true
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 8))
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
	always := pricing.MustHistory([]float64{0.01})
	coop.addWorker(near, always)
	coop.addWorker(far, always)
	coop.failFirstClaims = 1 // the nearest is "taken" by another platform
	m := NewDemCOM(coop, pricing.MonteCarlo{Xi: 0.1, Eta: 0.3}, rand.New(rand.NewSource(2)))
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 8))
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
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 5))
	if !d.Served || d.Assignment.Outer {
		t.Fatalf("fallback should serve inner: %+v", d)
	}

	// Literal Algorithm 3 (NoInnerFallback): the low-value request must
	// NOT use the inner worker and is rejected outright.
	m.NoInnerFallback = true
	m.Pool().Add(poolWorker(2, 0, 0, 0, 5))
	d = m.RequestArrives(poolRequest(2, 11, 0, 0, 5))
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
		pricing.MustHistory([]float64{0.5, 1, 2}))
	d := m.RequestArrives(poolRequest(1, 10, 0, 0, 8)) // 8 > e: high value
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

func TestStatsObserve(t *testing.T) {
	s := &Stats{}
	r := poolRequest(1, 10, 0, 0, 10)
	w := poolWorker(1, 0, 0, 0, 5)
	s.Observe(Decision{Served: true, Assignment: core.Assignment{Request: r, Worker: w}})
	outerW := &core.Worker{ID: 2, Arrival: 0, Loc: r.Loc, Radius: 5, Platform: 2}
	s.Observe(Decision{Served: true, CoopAttempted: true,
		Assignment: core.Assignment{Request: r, Worker: outerW, Payment: 4, Outer: true}})
	s.Observe(Decision{CoopAttempted: true}) // rejected cooperative
	s.Observe(Decision{})                    // plain rejection

	if s.Requests != 4 || s.Served != 2 || s.ServedInner != 1 || s.ServedOuter != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.CoopAttempted != 2 {
		t.Errorf("CoopAttempted = %d, want 2", s.CoopAttempted)
	}
	if math.Abs(s.Revenue-16) > 1e-9 { // 10 + (10-4)
		t.Errorf("Revenue = %v, want 16", s.Revenue)
	}
	if got := s.AcceptanceRatio(); got != 0.5 {
		t.Errorf("AcceptanceRatio = %v, want 0.5", got)
	}
	if got := s.MeanPaymentRate(); got != 0.4 {
		t.Errorf("MeanPaymentRate = %v, want 0.4", got)
	}
}

// TestStatsObserveZeroValueRequest guards the payment-rate division: a
// degenerate zero-value request served cooperatively must not poison
// PaymentRate (and everything aggregated from it) with NaN.
func TestStatsObserveZeroValueRequest(t *testing.T) {
	s := &Stats{}
	r := poolRequest(1, 10, 0, 0, 0) // value 0
	w := &core.Worker{ID: 2, Arrival: 0, Loc: r.Loc, Radius: 5, Platform: 2}
	s.Observe(Decision{Served: true, CoopAttempted: true,
		Assignment: core.Assignment{Request: r, Worker: w, Payment: 0, Outer: true}})
	if math.IsNaN(s.PaymentRate) || math.IsInf(s.PaymentRate, 0) {
		t.Fatalf("PaymentRate = %v, want finite", s.PaymentRate)
	}
	if s.PaymentRate != 0 {
		t.Errorf("PaymentRate = %v, want 0 for a zero-value request", s.PaymentRate)
	}
	if got := s.MeanPaymentRate(); math.IsNaN(got) {
		t.Errorf("MeanPaymentRate = %v, want finite", got)
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
