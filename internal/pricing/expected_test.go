package pricing

import (
	"math"
	"math/rand"
	"testing"
)

func TestMaxExpectedRevenueSingleWorker(t *testing.T) {
	// Worker history {2, 4, 8}, request value 10.
	// Candidates: pay 2 -> pr 1/3, E = 8/3 ≈ 2.67
	//             pay 4 -> pr 2/3, E = 4
	//             pay 8 -> pr 1,   E = 2
	//             pay 10 -> pr 1,  E = 0
	h := mustHistory([]float64{2, 4, 8})
	q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(10, []*History{h}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if q.Payment != 4 {
		t.Errorf("Payment = %v, want 4", q.Payment)
	}
	if math.Abs(q.ExpectedRev-4) > 1e-12 {
		t.Errorf("ExpectedRev = %v, want 4", q.ExpectedRev)
	}
	if math.Abs(q.AcceptProb-2.0/3.0) > 1e-12 {
		t.Errorf("AcceptProb = %v, want 2/3", q.AcceptProb)
	}
}

func TestMaxExpectedRevenuePaperExample3(t *testing.T) {
	// Example 3 of the paper: candidate revenues (v - v') in {1..5} with
	// acceptance probabilities {0.9, 0.8, 0.4, 0.3, 0.2}; maximum is
	// 2 * 0.8 = 1.6 at payment v - 2. With v = 6 we reconstruct an
	// acceptance curve yielding exactly those probabilities at payments
	// 5, 4, 3, 2, 1 using ten history points.
	// pr(1)=0.2, pr(2)=0.3, pr(3)=0.4, pr(4)=0.8, pr(5)=0.9
	h := mustHistory([]float64{1, 1, 2, 3, 4, 4, 4, 4, 5, 100})
	q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(6, []*History{h}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if q.Payment != 4 {
		t.Errorf("Payment = %v, want 4", q.Payment)
	}
	if math.Abs(q.ExpectedRev-1.6) > 1e-12 {
		t.Errorf("ExpectedRev = %v, want 1.6", q.ExpectedRev)
	}
	if math.Abs(q.AcceptProb-0.8) > 1e-12 {
		t.Errorf("AcceptProb = %v, want 0.8", q.AcceptProb)
	}
}

func TestMaxExpectedRevenueEmptyGroup(t *testing.T) {
	q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(10, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if q.ExpectedRev != 0 || q.Payment != 0 {
		t.Errorf("empty group quote = %+v, want zero", q)
	}
}

func TestMaxExpectedRevenueInvalidValue(t *testing.T) {
	for _, v := range []float64{0, -2, math.NaN(), math.Inf(-1)} {
		if _, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(v, nil, NewScratch()); err == nil {
			t.Errorf("value %v accepted", v)
		}
	}
}

func TestMaxExpectedRevenueUnaffordableGroup(t *testing.T) {
	h := mustHistory([]float64{50})
	q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(10, []*History{h}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// Only candidate is the full value with pr 0 -> zero quote.
	if q.ExpectedRev != 0 {
		t.Errorf("quote = %+v, want zero expected revenue", q)
	}
}

// Exhaustive check: the breakpoint maximization equals a fine numeric
// scan of E(v') over (0, value].
func TestMaxExpectedRevenueMatchesNumericScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		var group []*History
		for i := 0; i <= rng.Intn(4); i++ {
			var vals []float64
			for j := 0; j <= rng.Intn(8); j++ {
				vals = append(vals, math.Round((0.5+rng.Float64()*12)*4)/4)
			}
			group = append(group, mustHistory(vals))
		}
		value := 1 + rng.Float64()*15
		q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(value, group, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		bestScan := 0.0
		for i := 1; i <= 4000; i++ {
			v := value * float64(i) / 4000
			if e := (value - v) * groupAcceptProb(v, group); e > bestScan {
				bestScan = e
			}
		}
		if q.ExpectedRev < bestScan-1e-6 {
			t.Fatalf("trial %d: breakpoint max %v < scan max %v", trial, q.ExpectedRev, bestScan)
		}
	}
}

// Property: the quote never pays more than the value and expected revenue
// is consistent with its parts.
func TestMaxExpectedRevenueConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		var group []*History
		for i := 0; i <= rng.Intn(3); i++ {
			var vals []float64
			for j := 0; j <= rng.Intn(5); j++ {
				vals = append(vals, 0.5+rng.Float64()*9)
			}
			group = append(group, mustHistory(vals))
		}
		value := 0.5 + rng.Float64()*10
		q, err := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(value, group, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if q.Payment < 0 || q.Payment > value {
			t.Fatalf("payment %v outside [0, %v]", q.Payment, value)
		}
		if q.AcceptProb < 0 || q.AcceptProb > 1 {
			t.Fatalf("prob %v outside [0,1]", q.AcceptProb)
		}
		if math.Abs(q.ExpectedRev-(value-q.Payment)*q.AcceptProb) > 1e-9 {
			t.Fatalf("expected revenue inconsistent: %+v", q)
		}
	}
}

func TestThresholdQuote(t *testing.T) {
	h := mustHistory([]float64{1})
	q, err := NewQuoter(DefaultMonteCarlo).ThresholdQuote(10, []*History{h}, 0.5, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	wantPay := 10 * math.Exp(-0.5)
	if math.Abs(q.Payment-wantPay) > 1e-12 {
		t.Errorf("Payment = %v, want %v", q.Payment, wantPay)
	}
	if q.AcceptProb != 1 {
		t.Errorf("AcceptProb = %v, want 1", q.AcceptProb)
	}
	if _, err := NewQuoter(DefaultMonteCarlo).ThresholdQuote(10, []*History{h}, 0, NewScratch()); err == nil {
		t.Error("u=0 accepted")
	}
	if _, err := NewQuoter(DefaultMonteCarlo).ThresholdQuote(10, []*History{h}, 1.2, NewScratch()); err == nil {
		t.Error("u>1 accepted")
	}
	if _, err := NewQuoter(DefaultMonteCarlo).ThresholdQuote(-1, []*History{h}, 0.5, NewScratch()); err == nil {
		t.Error("negative value accepted")
	}
	if q, err := NewQuoter(DefaultMonteCarlo).ThresholdQuote(10, nil, 0.5, NewScratch()); err != nil || q.ExpectedRev != 0 {
		t.Errorf("empty group: %+v, %v", q, err)
	}
}
