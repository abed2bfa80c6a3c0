package pricing

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestMonteCarloInstances(t *testing.T) {
	mc := MonteCarlo{Xi: 0.1, Eta: 0.1}
	// n_s = ceil(4 ln 20 / 0.01) = ceil(1198.29...) = 1199
	if got := mc.Instances(); got != 1199 {
		t.Errorf("Instances = %d, want 1199", got)
	}
	tight := MonteCarlo{Xi: 0.5, Eta: 0.5}
	// ceil(4 ln 4 / 0.25) = ceil(22.18) = 23
	if got := tight.Instances(); got != 23 {
		t.Errorf("Instances = %d, want 23", got)
	}
}

func TestMonteCarloValidate(t *testing.T) {
	bad := []MonteCarlo{
		{Xi: 0, Eta: 0.1}, {Xi: 1, Eta: 0.1}, {Xi: 0.1, Eta: 0}, {Xi: 0.1, Eta: 1},
		{Xi: -0.1, Eta: 0.5}, {Xi: 0.5, Eta: -0.2},
	}
	for _, mc := range bad {
		if err := mc.Validate(); err == nil {
			t.Errorf("MonteCarlo%+v accepted", mc)
		}
	}
	if err := DefaultMonteCarlo.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMinOuterPaymentInvalidValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(v, nil, rng, NewScratch()); err == nil {
			t.Errorf("value %v accepted", v)
		}
	}
}

func TestMinOuterPaymentNoWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, nil, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if got <= 10 {
		t.Errorf("estimate %v must exceed value to signal rejection", got)
	}
}

// With a deterministic worker (accepts anything >= 3 with probability 1,
// never below), the dichotomy must converge to ~3 in every instance.
func TestMinOuterPaymentDeterministicWorker(t *testing.T) {
	h := mustHistory([]float64{3}) // pr = 1 for v' >= 3, else 0
	rng := rand.New(rand.NewSource(42))
	mc := MonteCarlo{Xi: 0.01, Eta: 0.2}
	got, err := NewQuoter(mc).MinOuterPayment(10, []*History{h}, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// Resolution is Xi * value = 0.1; the dichotomy brackets 3.
	if math.Abs(got-3) > 0.15 {
		t.Errorf("estimate = %v, want ~3", got)
	}
}

// A worker who never accepts within the value must push the estimate
// above the value (signalling rejection).
func TestMinOuterPaymentUnaffordableWorker(t *testing.T) {
	h := mustHistory([]float64{50}) // only accepts >= 50
	rng := rand.New(rand.NewSource(7))
	got, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{h}, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if got <= 10 {
		t.Errorf("estimate = %v, want > value 10", got)
	}
}

// The cheapest worker determines the frontier: adding expensive workers
// must not raise the estimate.
func TestMinOuterPaymentCheapestWorkerDominates(t *testing.T) {
	cheap := mustHistory([]float64{2})
	costly := mustHistory([]float64{9})
	rng1 := rand.New(rand.NewSource(5))
	rng2 := rand.New(rand.NewSource(5))
	mc := MonteCarlo{Xi: 0.02, Eta: 0.2}
	alone, err := NewQuoter(mc).MinOuterPayment(10, []*History{cheap}, rng1, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	both, err := NewQuoter(mc).MinOuterPayment(10, []*History{cheap, costly}, rng2, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if both > alone+0.3 {
		t.Errorf("adding a costly worker raised the estimate: %v -> %v", alone, both)
	}
	if math.Abs(alone-2) > 0.3 {
		t.Errorf("single cheap worker estimate = %v, want ~2", alone)
	}
}

// Lemma 1 accuracy check: with probabilistic workers, the mean estimate
// across instances must approximate the analytic acceptance frontier.
// A worker with history {2, 8} accepts v' in [2, 8) with probability 0.5
// and v' >= 8 with probability 1. In each instance, the dichotomy finds a
// point where sampled acceptance flips; the average lands between 2 and 8.
func TestMinOuterPaymentProbabilisticBounds(t *testing.T) {
	h := mustHistory([]float64{2, 8})
	rng := rand.New(rand.NewSource(11))
	got, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{h}, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// The v_l reading sits up to Xi*value below the sampled frontier, so
	// the lower bound relaxes by Xi*value = 1.
	if got < 1 || got > 8.5 {
		t.Errorf("estimate = %v, want within [1, 8.5]", got)
	}
}

// The estimator is deterministic for a fixed seed.
func TestMinOuterPaymentDeterministicSeed(t *testing.T) {
	h := mustHistory([]float64{1, 4, 6})
	a, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{h}, rand.New(rand.NewSource(99)), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{h}, rand.New(rand.NewSource(99)), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different estimates: %v vs %v", a, b)
	}
}

// The estimator must produce bit-identical results on any number of
// cores, and leave the caller's rng in the same state: it draws from
// that rng alone, on the calling goroutine.
func TestMinOuterPaymentGOMAXPROCSInvariant(t *testing.T) {
	h := mustHistory([]float64{1, 4, 6, 9})
	run := func(procs int) (est, nextDraw float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		rng := rand.New(rand.NewSource(123))
		got, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{h}, rng, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		return got, rng.Float64()
	}
	estSerial, drawSerial := run(1)
	estPar, drawPar := run(8)
	if estSerial != estPar {
		t.Errorf("estimate differs across GOMAXPROCS: %v vs %v", estSerial, estPar)
	}
	if drawSerial != drawPar {
		t.Errorf("caller rng state differs across GOMAXPROCS: %v vs %v", drawSerial, drawPar)
	}
}

func TestExactMinAcceptable(t *testing.T) {
	tests := []struct {
		name  string
		value float64
		group []*History
		want  float64
	}{
		{"cheapest wins", 10, []*History{mustHistory([]float64{5}), mustHistory([]float64{3})}, 3},
		{"above value signals reject", 2, []*History{mustHistory([]float64{5})}, -1}, // want > value
		{"empty group rejects", 10, nil, -1},
		{"empty history accepts anything", 10, []*History{mustHistory(nil)}, math.Nextafter(0, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ExactMinAcceptable(tt.value, tt.group)
			if tt.want < 0 {
				if got <= tt.value {
					t.Errorf("got %v, want > %v", got, tt.value)
				}
				return
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func BenchmarkMinOuterPayment(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var group []*History
	for i := 0; i < 20; i++ {
		var vals []float64
		for j := 0; j < 30; j++ {
			vals = append(vals, 1+rng.Float64()*20)
		}
		group = append(group, mustHistory(vals))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(15, group, rng, NewScratch()); err != nil {
			b.Fatal(err)
		}
	}
}
