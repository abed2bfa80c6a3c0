package online

// Integration tests encoding the paper's worked examples: Example 2
// (DemCOM on the running example) and Example 3 (RamCOM with threshold
// k = 1). The fixture is core.ExampleOneStream; worker histories there
// are chosen so the paper's narrated outcomes are reachable, and these
// tests assert the narrated structure holds whenever the random probes
// cooperate — plus the pieces that are deterministic regardless.

import (
	"math"
	"math/rand"
	"testing"

	"crossmatch/internal/core"
	"crossmatch/internal/pricing"
)

// runExample executes the Example 1 stream against a matcher exactly as
// the paper stages it: platform 1 is the target platform, platform 2's
// workers are lent through the coop view.
func runExample(t *testing.T, m Matcher) (*core.Matching, *Stats, *fakeCoop) {
	t.Helper()
	coop, ok := matcherCoop(m)
	if !ok {
		t.Fatal("matcher built without the shared fakeCoop")
	}
	s, err := core.ExampleOneStream()
	if err != nil {
		t.Fatal(err)
	}
	matching := core.NewMatching()
	stats := &Stats{}
	for _, e := range s.Events() {
		switch e.Kind {
		case core.WorkerArrival:
			if e.Worker.Platform == 1 {
				m.Pool().Add(e.Worker)
			} else {
				h, herr := pricing.NewHistory(e.Worker.History)
				if herr != nil {
					t.Fatal(herr)
				}
				coop.addWorker(e.Worker, h)
			}
		case core.RequestArrival:
			d := m.RequestArrives(e.Request)
			stats.Observe(d)
			if d.Served {
				if err := matching.Add(d.Assignment); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := matching.Validate(); err != nil {
		t.Fatal(err)
	}
	return matching, stats, coop
}

// matcherCoop extracts the fakeCoop a test installed on a matcher.
func matcherCoop(m Matcher) (*fakeCoop, bool) {
	switch mm := m.(type) {
	case *DemCOM:
		fc, ok := mm.coop.(*fakeCoop)
		return fc, ok
	case *RamCOM:
		fc, ok := mm.coop.(*fakeCoop)
		return fc, ok
	}
	return nil, false
}

// TestPaperExample2DemCOM follows Example 2's narration: w1 serves r1,
// w2 serves r2, r3 is offered to the outer worker w3, w4 serves r4, and
// r5 is offered to w5. The inner assignments are fully deterministic;
// the cooperative ones depend on acceptance probes, so the test asserts
// them across seeds and checks the narrated full outcome (all five
// served, revenue > TOTA's 16) is realized by some seeds.
func TestPaperExample2DemCOM(t *testing.T) {
	sawFullOutcome := false
	for seed := int64(0); seed < 40; seed++ {
		coop := newFakeCoop()
		m := NewDemCOM(coop, pricing.MonteCarlo{Xi: 0.05, Eta: 0.3}, rand.New(rand.NewSource(seed)))
		matching, stats, _ := runExample(t, m)

		// Deterministic inner skeleton: w1->r1, w2->r2, w4->r4.
		for req, wrk := range map[int64]int64{1: 1, 2: 2, 4: 4} {
			a, ok := matching.ByRequest(req)
			if !ok || a.Worker.ID != wrk || a.Outer {
				t.Fatalf("seed %d: r%d should be served inner by w%d, got %+v", seed, req, wrk, a)
			}
		}
		// r3 and r5 can only ever be cooperative (no inner worker can
		// serve them: w4 arrives after r3, and nothing covers r5).
		for _, req := range []int64{3, 5} {
			if a, ok := matching.ByRequest(req); ok {
				if !a.Outer {
					t.Fatalf("seed %d: r%d served by an inner worker %+v", seed, req, a)
				}
				if a.Worker.Platform != 2 {
					t.Fatalf("seed %d: r%d borrowed from platform %d", seed, req, a.Worker.Platform)
				}
				// Payment respects (0, v].
				if a.Payment <= 0 || a.Payment > a.Request.Value {
					t.Fatalf("seed %d: r%d payment %v out of range", seed, req, a.Payment)
				}
			}
		}
		if stats.CoopAttempted != 2 {
			t.Fatalf("seed %d: coop attempted = %d, want 2 (r3 and r5)", seed, stats.CoopAttempted)
		}
		if matching.Len() == 5 && stats.Revenue > 16 {
			sawFullOutcome = true
		}
	}
	if !sawFullOutcome {
		t.Error("Example 2's full outcome (five served, revenue > 16) never realized across 40 seeds")
	}
}

// TestPaperExample3RamCOM reconstructs Example 3: with k = 1 the
// threshold is e, so r1 (4), r2 (9), r3 (6) and r5 (4) are "large" and
// steered to inner workers while w3/w5 pick up what inner supply cannot
// reach. r4 (value 3 > e ~ 2.718) is also large. The test pins k = 1 by
// seed search and checks the threshold routing plus the Example 3
// fallback: r3 exceeds the threshold but has no free inner worker and
// goes to the outer worker w3.
func TestPaperExample3RamCOM(t *testing.T) {
	matched := false
	for seed := int64(0); seed < 200 && !matched; seed++ {
		coop := newFakeCoop()
		m := NewRamCOM(9, coop, rand.New(rand.NewSource(seed)))
		if math.Abs(m.Threshold()-math.E) > 1e-9 {
			continue // need k = 1
		}
		matching, _, _ := runExample(t, m)

		// All request values exceed e, so every served request either
		// used an inner worker or fell through to outer after inner
		// supply ran out — never the low-value direct-outer path.
		a3, ok3 := matching.ByRequest(3)
		if ok3 {
			if !a3.Outer || a3.Worker.ID != 3 {
				t.Fatalf("seed %d: r3 = %+v, want outer w3 (Example 3's fallback)", seed, a3)
			}
			matched = true
		}
		// r1 and r2 have free inner workers when they arrive (w1, w2) —
		// RamCOM's random inner choice must have served them inner.
		for _, req := range []int64{1, 2} {
			if a, ok := matching.ByRequest(req); ok && a.Outer {
				// r2 may legitimately go outer if the random inner pick
				// for r1 consumed the only worker covering r2... not
				// possible here: w1 and w2 both cover r2? w1 covers r1
				// and r2; w2 covers r2 and r3. If r1 took w2... w2 does
				// not cover r1. So r1 always takes w1, leaving w2 free
				// for r2: both must be inner.
				t.Fatalf("seed %d: r%d served outer %+v", seed, req, a)
			}
		}
	}
	if !matched {
		t.Error("Example 3's r3-to-w3 fallback never realized with k=1 across seeds")
	}
}

// TestPaperExampleRevenueCeiling: no online algorithm on Example 1 can
// beat the COM offline optimum 24.5 (with the fixture's histories), and
// all must beat zero. Sweeps all four matchers across seeds.
func TestPaperExampleRevenueCeiling(t *testing.T) {
	build := []func(seed int64) Matcher{
		func(int64) Matcher { return NewTOTAGreedy() },
		func(seed int64) Matcher {
			coop := newFakeCoop()
			return NewDemCOM(coop, pricing.DefaultMonteCarlo, rand.New(rand.NewSource(seed)))
		},
		func(seed int64) Matcher {
			coop := newFakeCoop()
			return NewRamCOM(9, coop, rand.New(rand.NewSource(seed)))
		},
	}
	for bi, mk := range build {
		for seed := int64(0); seed < 10; seed++ {
			m := mk(seed)
			stats := &Stats{}
			if _, ok := matcherCoop(m); ok {
				_, stats, _ = runExample(t, m)
			} else {
				stats = runPlatform1(t, m, nil)
			}
			if stats.Revenue > 24.5+1e-9 {
				t.Fatalf("matcher %d seed %d: revenue %v beats the offline optimum", bi, seed, stats.Revenue)
			}
			if stats.Revenue < 0 {
				t.Fatalf("matcher %d seed %d: negative revenue", bi, seed)
			}
		}
	}
}
