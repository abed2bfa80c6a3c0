package pricing

import (
	"math"
	"math/rand"
	"testing"
)

// TestLemma1AccuracyBound verifies the statistical guarantee of Lemma 1
// empirically: with n_s = ceil(4 ln(2/Xi) / Eta^2) instances, the
// estimate exceeds the true minimum payment by more than a factor
// (1 + Xi) with probability below Eta.
//
// The instance is built so the true minimum is analytic: one worker
// whose history makes it accept any payment >= 4 with probability 1 and
// anything below with probability 0 — the acceptance frontier is exactly
// 4, every sampled instance's dichotomy brackets it, and the v_l reading
// keeps each instance within Xi*value BELOW it. Overshoot beyond
// (1+Xi)*4 must therefore be rarer than Eta by a wide margin.
func TestLemma1AccuracyBound(t *testing.T) {
	mc := MonteCarlo{Xi: 0.2, Eta: 0.3}
	const trueMin = 4.0
	const value = 10.0
	h := mustHistory([]float64{trueMin})
	group := []*History{h}

	const runs = 300
	overshoots := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < runs; i++ {
		est, err := NewQuoter(mc).MinOuterPayment(value, group, rng, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if est > (1+mc.Xi)*trueMin {
			overshoots++
		}
		// The estimate can never exceed the frontier here (the dichotomy
		// brackets a deterministic threshold and v_l sits below it, then
		// the clamp raises it to exactly the floor).
		if est > trueMin+1e-9 {
			t.Fatalf("run %d: estimate %v above the deterministic frontier %v", i, est, trueMin)
		}
	}
	if frac := float64(overshoots) / runs; frac >= mc.Eta {
		t.Errorf("overshoot rate %v >= Eta %v, violating Lemma 1's bound", frac, mc.Eta)
	}
}

// TestLemma1ProbabilisticFrontier exercises the bound on a probabilistic
// worker, where sampling genuinely matters: history {2, 8} accepts in
// [2, 8) with probability 1/2. The true minimum acceptable payment is 2;
// the averaged estimate must concentrate between the floor and the
// frontier's upper step, and the clamped floor means no run can fall
// below 2.
func TestLemma1ProbabilisticFrontier(t *testing.T) {
	mc := MonteCarlo{Xi: 0.1, Eta: 0.2}
	h := mustHistory([]float64{2, 8})
	group := []*History{h}
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const runs = 50
	for i := 0; i < runs; i++ {
		est, err := NewQuoter(mc).MinOuterPayment(10, group, rng, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if est < 2-1e-9 {
			t.Fatalf("run %d: estimate %v below the acceptance floor 2", i, est)
		}
		if est > 8+1e-9 {
			t.Fatalf("run %d: estimate %v above the certain-acceptance step 8", i, est)
		}
		sum += est
	}
	mean := sum / runs
	// Each instance's sampled frontier is 2 with p=1/2 (first coin
	// accepts) and up to 8 otherwise; the mean concentrates well inside.
	if mean < 2.5 || mean > 7 {
		t.Errorf("mean estimate %v outside the plausible band [2.5, 7]", mean)
	}
	if math.IsNaN(mean) {
		t.Fatal("NaN mean")
	}
}
