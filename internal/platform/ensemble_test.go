package platform

import (
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
	"crossmatch/internal/workload"
)

func ensembleGen(t *testing.T) func(int64) (*core.Stream, error) {
	t.Helper()
	cfg, err := workload.Synthetic(300, 60, 1.0, "real")
	if err != nil {
		t.Fatal(err)
	}
	return func(seed int64) (*core.Stream, error) {
		return workload.Generate(cfg, seed)
	}
}

func TestSummarize(t *testing.T) {
	gen := ensembleGen(t)
	var res []*Result
	for _, seed := range []int64{1, 2, 3, 4} {
		stream, err := gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(stream, RamCOMFactory(100, RamCOMOptions{}), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
	}
	s, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 4 {
		t.Errorf("Runs = %d", s.Runs)
	}
	if s.MinRevenue > s.MeanRevenue || s.MeanRevenue > s.MaxRevenue {
		t.Errorf("ordering broken: min=%v mean=%v max=%v", s.MinRevenue, s.MeanRevenue, s.MaxRevenue)
	}
	if s.RevenueStdDevFrac < 0 || s.RevenueStdDevFrac > 2 {
		t.Errorf("std-dev fraction implausible: %v", s.RevenueStdDevFrac)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := Summarize([]*Result{nil}); err == nil {
		t.Error("nil result accepted")
	}
}

// TestLatencyReservoirWired: a platform's Latency is its one record of
// decision latency, one observation per decided request, for a greedy
// matcher, for DemCOM's quotes and for BatchCOM's window flushes.
func TestLatencyReservoirWired(t *testing.T) {
	gen := ensembleGen(t)
	stream, err := gen(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []struct {
		name    string
		factory MatcherFactory
	}{
		{"TOTA", totaFactory()},
		{"DemCOM", DemCOMFactory(pricing.DefaultMonteCarlo, false)},
		{"BatchCOM", batchCOMFactory()},
	} {
		res, err := Run(stream, alg.factory, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for pid, pr := range res.Platforms {
			if pr.Latency == nil {
				t.Fatalf("%s, platform %d: nil latency reservoir", alg.name, pid)
			}
			if pr.Stats.Requests == 0 {
				t.Fatalf("%s, platform %d: no requests; the stream does not exercise the record", alg.name, pid)
			}
			if pr.Latency.Count() != int64(pr.Stats.Requests) {
				t.Errorf("%s, platform %d: latency count %d != requests %d",
					alg.name, pid, pr.Latency.Count(), pr.Stats.Requests)
			}
			if got, want := pr.MeanResponse(), pr.Latency.Sum()/time.Duration(pr.Stats.Requests); got != want {
				t.Errorf("%s, platform %d: MeanResponse %v, latency sum / requests %v", alg.name, pid, got, want)
			}
			if p99 := pr.Latency.Percentile(0.99); p99 > pr.Latency.Max() {
				t.Errorf("%s, platform %d: p99 %v above max %v", alg.name, pid, p99, pr.Latency.Max())
			}
		}
	}
}

// TestFoldWindowSharesSumToFlush: a flush of n decisions costing el
// books el/n per decision, one nanosecond more on the first el mod n,
// so the platform's latency sum is the flush's cost and its max the
// largest share, not the flush.
func TestFoldWindowSharesSumToFlush(t *testing.T) {
	e, err := NewEngine([]core.PlatformID{1}, batchCOMFactory(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.slotOf(1)
	wds := make([]online.Decided, 3)
	for i := range wds {
		wds[i] = online.Decided{Request: &core.Request{ID: int64(i + 1), Value: 1, Platform: 1},
			Decision: online.Decision{Reason: online.ReasonNoWorkers}}
	}
	if err := e.foldWindow(s, wds, 11); err != nil {
		t.Fatal(err)
	}
	lat := s.res.Latency
	if lat.Count() != 3 || lat.Sum() != 11 || lat.Max() != 4 || lat.Percentile(0) != 3 {
		t.Fatalf("shares of an 11 ns flush over 3 decisions: count %d, sum %v, max %v, min %v; want 3, 11ns, 4ns, 3ns",
			lat.Count(), lat.Sum(), lat.Max(), lat.Percentile(0))
	}
}

// TestResultFloatSumsIgnoreMapOrder: with three platforms (0.1+0.2)+0.3
// and 0.1+(0.2+0.3) differ in the last bit, so a sum taken in map order
// changed from call to call.
func TestResultFloatSumsIgnoreMapOrder(t *testing.T) {
	r := &Result{Platforms: map[core.PlatformID]*PlatformResult{}}
	for id, v := range map[core.PlatformID]float64{1: 0.1, 2: 0.2, 3: 0.3} {
		pr := &PlatformResult{Matching: matchingWorth(t, v)}
		pr.Stats.PaymentRate, pr.Stats.ServedOuter = v, 1
		r.Platforms[id] = pr
	}
	a, b, c := 0.1, 0.2, 0.3 // variables: constant arithmetic is exact
	wantRev := (a + b) + c
	for i := 0; i < 200; i++ {
		if got := r.TotalRevenue(); got != wantRev {
			t.Fatalf("call %d: TotalRevenue = %v, want %v", i, got, wantRev)
		}
		if got := r.MeanPaymentRate(); got != wantRev/3 {
			t.Fatalf("call %d: MeanPaymentRate = %v, want %v", i, got, wantRev/3)
		}
	}
}
