package platform

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
)

func exampleStream(t *testing.T) *core.Stream {
	t.Helper()
	s, err := core.ExampleOneStream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addAll puts workers into a pool, failing the test on a refused one.
func addAll(t *testing.T, p *online.Pool, ws ...*core.Worker) {
	t.Helper()
	for _, w := range ws {
		if err := p.Add(w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHubRegisterAndArrivals(t *testing.T) {
	h := NewHub()
	p1 := online.NewPool(nil)
	if err := h.RegisterPlatform(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPlatform(1, p1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := h.RegisterPlatform(core.NoPlatform, p1); err == nil {
		t.Error("zero platform accepted")
	}
	// An arrival is a pool slot: the pool builds the history, and refuses
	// one pricing.MakeHistory refuses without taking the worker.
	addAll(t, p1, &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 1, Platform: 1, History: []float64{2}})
	badHist := &core.Worker{ID: 3, Arrival: 0, Loc: geo.Point{}, Radius: 1, Platform: 1, History: []float64{-1}}
	if err := p1.Add(badHist); err == nil {
		t.Error("invalid history accepted")
	}
	if p1.Len() != 1 || p1.Has(3) {
		t.Errorf("refused worker reached the pool: len %d", p1.Len())
	}
}

// TestHubViewSeesOnlyOtherPlatforms: a view lists every other
// platform's covering workers, partners in registration order, each with
// its own worker's history — the pool slot's, sharing the worker's
// ascending slice.
func TestHubViewSeesOnlyOtherPlatforms(t *testing.T) {
	h := NewHub()
	pools := map[core.PlatformID]*online.Pool{}
	for _, pid := range []core.PlatformID{3, 1, 2} {
		pools[pid] = online.NewPool(nil)
		if err := h.RegisterPlatform(pid, pools[pid]); err != nil {
			t.Fatal(err)
		}
	}
	ws := map[int64]*core.Worker{}
	for id, pid := range map[int64]core.PlatformID{1: 1, 2: 2, 3: 3, 4: 2} {
		w := &core.Worker{ID: id, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: pid, History: []float64{float64(id), 9}}
		ws[id] = w
		addAll(t, pools[pid], w)
	}

	r := &core.Request{ID: 1, Arrival: 10, Loc: geo.Point{}, Value: 5, Platform: 1}
	got := h.ViewFor(1).EligibleOuter(r)
	var ids []int64
	for _, c := range got {
		ids = append(ids, c.Worker.ID)
		if c.Worker.Platform == 1 {
			t.Errorf("platform 1 sees its own worker %d", c.Worker.ID)
		}
		if vals := c.History.Values(); len(vals) != 2 || &vals[0] != &ws[c.Worker.ID].History[0] {
			t.Errorf("worker %d's candidate carries history %v, not its own", c.Worker.ID, vals)
		}
	}
	// Registration order is 3, 1, 2: platform 3's worker, then platform
	// 2's two in their pool's visit order.
	if len(ids) != 3 || ids[0] != 3 {
		t.Fatalf("platform 1 sees %v, want worker 3 then platform 2's workers 2 and 4", ids)
	}
}

func TestHubClaimSemantics(t *testing.T) {
	h := NewHub()
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	_ = h.RegisterPlatform(1, p1)
	_ = h.RegisterPlatform(2, p2)
	addAll(t, p2, &core.Worker{ID: 2, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}})

	v1 := h.ViewFor(1)
	if !v1.Claim(2) {
		t.Fatal("claim of available outer worker failed")
	}
	if v1.Claim(2) {
		t.Error("double claim succeeded")
	}
	if p2.Len() != 0 {
		t.Error("claim did not remove worker from owner pool")
	}
	if got := h.Lent()[2]; got != 1 {
		t.Errorf("platform 2 lent %d workers, want 1", got)
	}
	// A platform cannot "claim" its own workers through the coop view.
	addAll(t, p1, &core.Worker{ID: 1, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 1, History: []float64{1}})
	if v1.Claim(1) {
		t.Error("self-claim through coop view succeeded")
	}
	if !p1.Has(1) {
		t.Error("a refused self-claim removed the worker")
	}
	if v1.Claim(99) {
		t.Error("claim of unknown worker succeeded")
	}
}

func TestHubCoopDisabled(t *testing.T) {
	h := NewHub()
	p1, p2 := online.NewPool(nil), online.NewPool(nil)
	_ = h.RegisterPlatform(1, p1)
	_ = h.RegisterPlatform(2, p2)
	addAll(t, p2, &core.Worker{ID: 2, Arrival: 0, Loc: geo.Point{}, Radius: 5, Platform: 2, History: []float64{1}})
	h.CoopDisabled = true
	v1 := h.ViewFor(1)
	r := &core.Request{ID: 1, Arrival: 10, Loc: geo.Point{}, Value: 5, Platform: 1}
	if len(v1.EligibleOuter(r)) != 0 {
		t.Error("disabled hub leaked outer workers")
	}
	if v1.Claim(2) {
		t.Error("disabled hub allowed a claim")
	}
}

func TestRunTOTAOnExampleOne(t *testing.T) {
	// Only platform 1 has requests; its TOTA result must equal the
	// hand-computed 16 (see online tests); platform 2 serves nothing.
	res, err := Run(exampleStream(t), TOTAFactory(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	p1 := res.Platforms[1]
	if p1 == nil || math.Abs(p1.Stats.Revenue-16) > 1e-9 || p1.Stats.Served != 3 {
		t.Fatalf("platform 1: %+v", p1)
	}
	if p2 := res.Platforms[2]; p2.Stats.Requests != 0 {
		t.Errorf("platform 2 saw requests: %+v", p2.Stats)
	}
	if res.TotalServed() != 3 || math.Abs(res.TotalRevenue()-16) > 1e-9 {
		t.Errorf("totals: served=%d revenue=%v", res.TotalServed(), res.TotalRevenue())
	}
}

func TestRunDemCOMCooperatesAcrossPlatforms(t *testing.T) {
	// Across seeds, DemCOM must sometimes serve r3/r5 via platform 2's
	// workers, and whenever it does, total revenue must beat TOTA's 16.
	coopHappened := false
	for seed := int64(0); seed < 25; seed++ {
		res, err := Run(exampleStream(t), DemCOMFactory(pricing.MonteCarlo{Xi: 0.05, Eta: 0.3}, false), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		p1 := res.Platforms[1]
		if p1.Stats.ServedInner != 3 {
			t.Fatalf("seed %d: inner served = %d, want 3", seed, p1.Stats.ServedInner)
		}
		if p1.Stats.ServedOuter > 0 {
			coopHappened = true
			if p1.Stats.Revenue <= 16 {
				t.Errorf("seed %d: revenue %v with cooperation, want > 16", seed, p1.Stats.Revenue)
			}
			// Outer assignments must use platform 2 workers.
			for _, a := range p1.Matching.Assignments() {
				if a.Outer && a.Worker.Platform != 2 {
					t.Errorf("outer assignment uses platform %d worker", a.Worker.Platform)
				}
			}
		}
	}
	if !coopHappened {
		t.Error("cooperation never occurred across 25 seeds")
	}
}

func TestRunDisableCoopEqualsTOTA(t *testing.T) {
	dem, err := Run(exampleStream(t), DemCOMFactory(pricing.DefaultMonteCarlo, false), Config{Seed: 9, DisableCoop: true})
	if err != nil {
		t.Fatal(err)
	}
	tota, err := Run(exampleStream(t), TOTAFactory(), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if dem.TotalRevenue() != tota.TotalRevenue() || dem.TotalServed() != tota.TotalServed() {
		t.Errorf("DemCOM with coop disabled: rev %v served %d; TOTA: rev %v served %d",
			dem.TotalRevenue(), dem.TotalServed(), tota.TotalRevenue(), tota.TotalServed())
	}
	if dem.CooperativeServed() != 0 {
		t.Error("cooperative requests served with coop disabled")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a, err := Run(exampleStream(t), RamCOMFactory(9, RamCOMOptions{}), Config{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(exampleStream(t), RamCOMFactory(9, RamCOMOptions{}), Config{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalRevenue() != b.TotalRevenue() || a.TotalServed() != b.TotalServed() {
		t.Errorf("same seed diverged: (%v, %d) vs (%v, %d)",
			a.TotalRevenue(), a.TotalServed(), b.TotalRevenue(), b.TotalServed())
	}
}

func TestRunWorkerRecycling(t *testing.T) {
	// One worker, two sequential requests it covers. Without recycling
	// only the first is served; with ServiceTicks=1 the worker returns
	// in time for the second.
	ws := []*core.Worker{{ID: 1, Arrival: 1, Loc: geo.Point{}, Radius: 2, Platform: 1, History: []float64{1}}}
	rs := []*core.Request{
		{ID: 1, Arrival: 2, Loc: geo.Point{X: 0.5}, Value: 5, Platform: 1},
		{ID: 2, Arrival: 10, Loc: geo.Point{X: 0.6}, Value: 7, Platform: 1},
	}
	stream, err := core.NewStream(append(core.WorkerEvents(ws), core.RequestEvents(rs)...))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(stream, TOTAFactory(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalServed() != 1 {
		t.Fatalf("without recycling served = %d, want 1", plain.TotalServed())
	}
	rec, err := Run(stream, TOTAFactory(), Config{Seed: 1, ServiceTicks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalServed() != 2 {
		t.Fatalf("with recycling served = %d, want 2", rec.TotalServed())
	}
	if rec.Recycled == 0 {
		t.Error("recycled counter not incremented")
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineExampleOne(t *testing.T) {
	// With Example 1's histories (w3 min 1, w5 min 0.5) the joint
	// offline optimum is 4 + 9 + 6-1 + 3 + 4-0.5 = 24.5 for platform 1
	// (see example.go), or the equivalent permutation.
	res, err := Offline(exampleStream(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalWeight-24.5) > 1e-9 {
		t.Errorf("OFF total = %v, want 24.5", res.TotalWeight)
	}
	if res.TotalServed != 5 {
		t.Errorf("served = %d, want 5", res.TotalServed)
	}
	if math.Abs(res.Revenue[1]-24.5) > 1e-9 {
		t.Errorf("platform 1 revenue = %v", res.Revenue[1])
	}
	if err := res.Matching.Validate(); err != nil {
		t.Error(err)
	}
}

// OFF dominates every online algorithm on the same stream (it is the
// upper bound used for competitive ratios).
func TestOfflineDominatesOnline(t *testing.T) {
	stream := exampleStream(t)
	off, err := Offline(stream)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]MatcherFactory{
		"TOTA":   TOTAFactory(),
		"DemCOM": DemCOMFactory(pricing.DefaultMonteCarlo, false),
		"RamCOM": RamCOMFactory(stream.MaxValue(), RamCOMOptions{}),
	}
	for name, f := range factories {
		for seed := int64(0); seed < 10; seed++ {
			res, err := Run(stream, f, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalRevenue() > off.TotalWeight+1e-9 {
				t.Errorf("%s seed %d: online %v exceeds OFF %v", name, seed, res.TotalRevenue(), off.TotalWeight)
			}
		}
	}
}

// TestOfflineExactPastCutoff solves a graph with more than 3000 vertices
// on each side, past the size where OFF used to switch to a greedy
// estimate, and holds it to the optimum. The stream is 3001 disjoint
// gadgets, 5 km apart on a grid:
//
//   - r1 on platform 1 (v = 10) and r2 on platform 2 (v = 8), 1.5 km apart;
//   - w1 on platform 1, history min 0.001, covers both requests;
//   - w2 on platform 2, history min 9, covers only r1.
//
// A greedy that seats the heaviest request first and then augments
// books w2-r1 (10 − 9) + w1-r2 (8 − 0.001) = 8.999 per gadget; the
// optimum books w1-r1 alone, 10.
func TestOfflineExactPastCutoff(t *testing.T) {
	const gadgets, cols, gap = 3001, 55, 5.0
	var events []core.Event
	for i := range gadgets {
		x, y := float64(i%cols)*gap, float64(i/cols)*gap
		id := int64(2 * i)
		events = append(events,
			core.Event{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{
				ID: id + 1, Loc: geo.Point{X: x + 0.75, Y: y}, Radius: 1, Platform: 1, History: []float64{0.001, 5}}},
			core.Event{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{
				ID: id + 2, Loc: geo.Point{X: x - 0.25, Y: y}, Radius: 0.5, Platform: 2, History: []float64{9, 12}}},
			core.Event{Time: 1, Kind: core.RequestArrival, Request: &core.Request{
				ID: id + 1, Arrival: 1, Loc: geo.Point{X: x, Y: y}, Value: 10, Platform: 1}},
			core.Event{Time: 1, Kind: core.RequestArrival, Request: &core.Request{
				ID: id + 2, Arrival: 1, Loc: geo.Point{X: x + 1.5, Y: y}, Value: 8, Platform: 2}},
		)
	}
	stream, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Offline(stream)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0 * gadgets; off.TotalWeight != want || off.TotalServed != gadgets || off.Served[2] != 0 {
		t.Fatalf("OFF = %v over %d served (%d on platform 2), want %v over %d, all on platform 1",
			off.TotalWeight, off.TotalServed, off.Served[2], want, gadgets)
	}
	if err := off.Matching.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOfflineRefusesPastWorkBound: a graph whose min(|W|, |R|) × |E|
// passes the bound is refused with its sizes named, not estimated. The
// stream is n isolated workers, n isolated requests and one k × k
// cluster in which every worker covers every request: |E| = k², and
// (n + k) · k² just passes 5e10.
func TestOfflineRefusesPastWorkBound(t *testing.T) {
	const n, k = 100_000, 710
	events := make([]core.Event, 0, 2*(n+k))
	for i := range n + k {
		wLoc, rLoc, radius := geo.Point{X: -1000}, geo.Point{X: 1000}, 0.1
		if i < k {
			wLoc, rLoc, radius = geo.Point{}, geo.Point{}, 1
		}
		events = append(events,
			core.Event{Time: 0, Kind: core.WorkerArrival, Worker: &core.Worker{
				ID: int64(i), Loc: wLoc, Radius: radius, Platform: 1}},
			core.Event{Time: 1, Kind: core.RequestArrival, Request: &core.Request{
				ID: int64(i), Arrival: 1, Loc: rLoc, Value: 1, Platform: 1}},
		)
	}
	stream, err := core.NewStream(events)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Offline(stream)
	if err == nil {
		t.Fatalf("OFF past the work bound returned %v, want an error", off.TotalWeight)
	}
	for _, want := range []string{"|W|=100710", "|R|=100710", "|E|=504100", "5e+10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestFactoryFor(t *testing.T) {
	for _, name := range []string{AlgTOTA, AlgGreedyRT, AlgDemCOM, AlgRamCOM} {
		f, err := FactoryFor(name, 10)
		if err != nil {
			t.Errorf("FactoryFor(%q): %v", name, err)
			continue
		}
		m := f(1, online.NoCoop{}, rand.New(rand.NewSource(1)))
		if m.Name() != name {
			t.Errorf("factory %q built matcher %q", name, m.Name())
		}
	}
	if _, err := FactoryFor("nope", 10); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown name: %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := FactoryFor(AlgOFF, 10); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("OFF is not an online matcher: %v, want ErrUnknownAlgorithm", err)
	}
}

func TestResultAggregates(t *testing.T) {
	res := &Result{Platforms: map[core.PlatformID]*PlatformResult{
		1: {Stats: online.Stats{Revenue: 10, Served: 2, ServedOuter: 1, CoopAttempted: 2, PaymentRate: 0.5}},
		2: {Stats: online.Stats{Revenue: 5, Served: 1, ServedOuter: 1, CoopAttempted: 2, PaymentRate: 0.7}},
	}}
	if res.TotalRevenue() != 15 || res.TotalServed() != 3 || res.CooperativeServed() != 2 {
		t.Errorf("aggregates wrong: %v %d %d", res.TotalRevenue(), res.TotalServed(), res.CooperativeServed())
	}
	if got := res.AcceptanceRatio(); got != 0.5 {
		t.Errorf("AcceptanceRatio = %v, want 0.5", got)
	}
	if got := res.MeanPaymentRate(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("MeanPaymentRate = %v, want 0.6", got)
	}
	empty := &Result{Platforms: map[core.PlatformID]*PlatformResult{}}
	if empty.AcceptanceRatio() != 0 || empty.MeanPaymentRate() != 0 {
		t.Error("empty result ratios should be 0")
	}
}
