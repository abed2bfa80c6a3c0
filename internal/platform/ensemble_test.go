package platform

import (
	"testing"

	"crossmatch/internal/core"
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

func TestLatencyReservoirWired(t *testing.T) {
	gen := ensembleGen(t)
	stream, err := gen(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(stream, TOTAFactory(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pid, pr := range res.Platforms {
		if pr.Latency == nil {
			t.Fatalf("platform %d: nil latency reservoir", pid)
		}
		if pr.Latency.Count() != int64(pr.Stats.Requests) {
			t.Errorf("platform %d: latency count %d != requests %d",
				pid, pr.Latency.Count(), pr.Stats.Requests)
		}
		if pr.Stats.Requests > 0 {
			if pr.Latency.Max() != pr.ResponseMax {
				t.Errorf("platform %d: reservoir max %v != recorded max %v",
					pid, pr.Latency.Max(), pr.ResponseMax)
			}
			if pr.Latency.Percentile(0.99) > pr.ResponseMax {
				t.Errorf("platform %d: p99 above max", pid)
			}
		}
	}
}

// TestResultFloatSumsIgnoreMapOrder: with three platforms (0.1+0.2)+0.3
// and 0.1+(0.2+0.3) differ in the last bit, so a sum taken in map order
// changed from call to call.
func TestResultFloatSumsIgnoreMapOrder(t *testing.T) {
	r := &Result{Platforms: map[core.PlatformID]*PlatformResult{}}
	for id, v := range map[core.PlatformID]float64{1: 0.1, 2: 0.2, 3: 0.3} {
		pr := &PlatformResult{}
		pr.Stats.Revenue, pr.Stats.PaymentRate, pr.Stats.ServedOuter = v, v, 1
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
