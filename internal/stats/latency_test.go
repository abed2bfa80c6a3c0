package stats

import (
	"math"
	"testing"
	"time"
)

func TestReservoirExactAggregates(t *testing.T) {
	r := NewReservoir(8, 1)
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(0.5) != 0 {
		t.Fatal("empty reservoir not zeroed")
	}
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	if r.Count() != 100 {
		t.Errorf("Count = %d", r.Count())
	}
	if r.Max() != 100*time.Millisecond {
		t.Errorf("Max = %v", r.Max())
	}
	wantSum := time.Duration(100*101/2) * time.Millisecond
	if r.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", r.Sum(), wantSum)
	}
	if r.Mean() != wantSum/100 {
		t.Errorf("Mean = %v", r.Mean())
	}
}

func TestReservoirPercentilesFullSample(t *testing.T) {
	// Capacity above the observation count: percentiles are exact.
	r := NewReservoir(1000, 1)
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	if p := r.Percentile(0.5); p != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", p)
	}
	if p := r.Percentile(0.95); p != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", p)
	}
	if p := r.Percentile(1.0); p != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", p)
	}
	if p := r.Percentile(0); p != 1*time.Millisecond {
		t.Errorf("p0 = %v, want 1ms", p)
	}
	// Out-of-range quantiles clamp.
	if r.Percentile(-1) != r.Percentile(0) || r.Percentile(2) != r.Percentile(1) {
		t.Error("quantile clamping broken")
	}
}

// TestNearestRank holds the q-quantile of 1..N to the ceil(q·N)-th
// value, worked out here in integers (q·N = num·N/100). Flooring the
// product, as nearestRank did, read one rank low wherever q·N is not an
// integer: the p50 of {1,2,3} as 1, the p99 of ten samples as the ninth.
func TestNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100, 150} {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		for _, num := range []int{0, 50, 90, 95, 99, 100} {
			want := (num*n + 99) / 100 // ceil(num·n / 100)
			if want < 1 {
				want = 1
			}
			if got := nearestRank(sorted, float64(num)/100); got != time.Duration(want) {
				t.Errorf("N=%d q=%d%%: rank %d, want %d", n, num, got, want)
			}
		}
	}
}

func TestReservoirSamplingApproximation(t *testing.T) {
	// 50k uniform observations through a 4k reservoir: p50 within 5%.
	r := NewReservoir(4096, 7)
	for i := 1; i <= 50000; i++ {
		r.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := float64(r.Percentile(0.5)) / float64(time.Microsecond)
	if p50 < 22500 || p50 > 27500 {
		t.Errorf("sampled p50 = %v, want ~25000", p50)
	}
	p95 := float64(r.Percentile(0.95)) / float64(time.Microsecond)
	if p95 < 45000 || p95 > 50000 {
		t.Errorf("sampled p95 = %v, want ~47500", p95)
	}
}

func TestReservoirMerge(t *testing.T) {
	a := NewReservoir(100, 1)
	b := NewReservoir(100, 2)
	for i := 1; i <= 50; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		b.Observe(time.Duration(i+50) * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Errorf("merged Count = %d", a.Count())
	}
	if a.Max() != 100*time.Millisecond {
		t.Errorf("merged Max = %v", a.Max())
	}
	wantSum := time.Duration(100*101/2) * time.Millisecond
	if a.Sum() != wantSum {
		t.Errorf("merged Sum = %v", a.Sum())
	}
	a.Merge(nil) // no-op
	if a.Count() != 100 {
		t.Error("nil merge changed count")
	}
}

// TestReservoirMergeCountWeighted pins the merge-bias fix: a small
// donor merged into a large receiver must occupy sample slots roughly in
// proportion to its observation count, not (as the old flat-probability
// merge did) roughly half of them.
func TestReservoirMergeCountWeighted(t *testing.T) {
	const cap = 512
	big := NewReservoir(cap, 1)
	for i := 0; i < 50000; i++ {
		big.Observe(time.Millisecond) // receiver: 50k fast observations
	}
	small := NewReservoir(cap, 2)
	for i := 0; i < 500; i++ {
		small.Observe(100 * time.Millisecond) // donor: 500 slow outliers
	}
	big.Merge(small)

	if big.Count() != 50500 {
		t.Fatalf("merged Count = %d", big.Count())
	}
	donor := 0
	for _, d := range big.sample {
		if d == 100*time.Millisecond {
			donor++
		}
	}
	// Expected donor share: 500/50500 of cap ~= 5 slots. Allow wide
	// randomness headroom; the old merge put ~cap/2 (~256) donor items in.
	if donor > cap/8 {
		t.Errorf("donor holds %d of %d slots; merge still biased toward the donor", donor, cap)
	}
	// The merged tail must still be dominated by the receiver: p50 and
	// p90 are 1ms, and the donor outliers cannot drag p50 upward.
	if p := big.Percentile(0.5); p != time.Millisecond {
		t.Errorf("merged p50 = %v, want 1ms", p)
	}
	if p := big.Percentile(0.9); p != time.Millisecond {
		t.Errorf("merged p90 = %v, want 1ms", p)
	}
}

// TestReservoirMergeSkewedDistribution merges two skewed reservoirs of
// comparable weight and checks the merged quantiles land between the
// sources according to their counts.
func TestReservoirMergeSkewedDistribution(t *testing.T) {
	fast := NewReservoir(1024, 3)
	for i := 0; i < 30000; i++ {
		fast.Observe(time.Millisecond)
	}
	slow := NewReservoir(1024, 4)
	for i := 0; i < 10000; i++ {
		slow.Observe(10 * time.Millisecond)
	}
	fast.Merge(slow)
	// Mixture: 75% at 1ms, 25% at 10ms. p50 must be 1ms, p90 must be
	// 10ms, and the slow side's sample share should be ~25%.
	if p := fast.Percentile(0.5); p != time.Millisecond {
		t.Errorf("merged p50 = %v, want 1ms", p)
	}
	if p := fast.Percentile(0.9); p != 10*time.Millisecond {
		t.Errorf("merged p90 = %v, want 10ms", p)
	}
	slowShare := 0
	for _, d := range fast.sample {
		if d == 10*time.Millisecond {
			slowShare++
		}
	}
	frac := float64(slowShare) / float64(len(fast.sample))
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("slow-side sample share = %.3f, want ~0.25", frac)
	}
}

// TestReservoirMergeIntoEmpty covers adoption of a donor by an empty
// receiver, including a donor sample larger than the receiver capacity.
func TestReservoirMergeIntoEmpty(t *testing.T) {
	donor := NewReservoir(256, 5)
	for i := 1; i <= 200; i++ {
		donor.Observe(time.Duration(i) * time.Millisecond)
	}
	dst := NewReservoir(64, 6)
	dst.Merge(donor)
	if dst.Count() != 200 || dst.Max() != 200*time.Millisecond {
		t.Fatalf("adopted aggregates wrong: count=%d max=%v", dst.Count(), dst.Max())
	}
	if len(dst.sample) != 64 {
		t.Fatalf("adopted sample size = %d, want capacity 64", len(dst.sample))
	}
	p50 := float64(dst.Percentile(0.5)) / float64(time.Millisecond)
	if p50 < 60 || p50 > 140 {
		t.Errorf("adopted p50 = %vms, want ~100ms", p50)
	}
}

func TestReservoirQuantilesMatchPercentile(t *testing.T) {
	r := NewReservoir(4096, 7)
	for i := 1; i <= 10000; i++ {
		r.Observe(time.Duration(i) * time.Microsecond)
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	got := r.Quantiles(qs)
	for i, q := range qs {
		if want := r.Percentile(q); got[i] != want {
			t.Errorf("Quantiles[%v] = %v, Percentile = %v", q, got[i], want)
		}
	}
	if out := r.Quantiles(nil); len(out) != 0 {
		t.Errorf("Quantiles(nil) = %v", out)
	}
}

func TestReservoirNaNQuantile(t *testing.T) {
	r := NewReservoir(16, 8)
	r.Observe(time.Millisecond)
	nan := math.NaN()
	if p := r.Percentile(nan); p != 0 {
		t.Errorf("Percentile(NaN) = %v, want 0", p)
	}
	got := r.Quantiles([]float64{0.5, nan, 1})
	if got[0] != time.Millisecond || got[1] != 0 || got[2] != time.Millisecond {
		t.Errorf("Quantiles with NaN = %v", got)
	}
}

func TestReservoirDefaultCapacity(t *testing.T) {
	r := NewReservoir(0, 1)
	for i := 0; i < DefaultReservoirSize+10; i++ {
		r.Observe(time.Millisecond)
	}
	if len(r.sample) != DefaultReservoirSize {
		t.Errorf("sample size = %d, want %d", len(r.sample), DefaultReservoirSize)
	}
}

// inclusionChi2 is Pearson's statistic of per-position inclusion counts
// against the uniform expectation: total/len(counts) each.
func inclusionChi2(counts []int, total int) float64 {
	e := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, o := range counts {
		chi2 += (float64(o) - e) * (float64(o) - e) / e
	}
	return chi2
}

// TestReservoirLaw holds the sample to the law of a uniform k-of-n
// sample: every observation is kept with probability k/n. Each of many
// seeded reservoirs sees 0..n−1, and the inclusion count of each
// position is tested against k/n by chi-square; then again for
// reservoirs built by a Merge of two halves and fed on afterwards, which
// holds Merge to a uniform sample of the union (the count-per-item
// weights it drew with before read 723.5 here). The bound is
// df + 5·sqrt(2·df), about the 0.9999 quantile for these df.
func TestReservoirLaw(t *testing.T) {
	const k, n, trials = 8, 200, 20_000
	bound := func(df int) float64 { return float64(df) + 5*math.Sqrt(2*float64(df)) }

	counts := make([]int, n)
	for s := 0; s < trials; s++ {
		r := NewReservoir(k, int64(s))
		for i := 0; i < n; i++ {
			r.Observe(time.Duration(i))
		}
		for _, d := range r.sample {
			counts[d]++
		}
	}
	if chi2 := inclusionChi2(counts, trials*k); chi2 > bound(n-1) {
		t.Errorf("observed 0..%d: chi-square %.1f over %d positions, bound %.1f", n-1, chi2, n, bound(n-1))
	}

	const half, after = 120, 100
	counts = make([]int, n+after)
	for s := 0; s < trials; s++ {
		a, b := NewReservoir(k, int64(s)), NewReservoir(k, int64(s+trials))
		for i := 0; i < n; i++ {
			if i < half {
				a.Observe(time.Duration(i))
			} else {
				b.Observe(time.Duration(i))
			}
		}
		a.Merge(b)
		for i := n; i < n+after; i++ {
			a.Observe(time.Duration(i))
		}
		for _, d := range a.sample {
			counts[d]++
		}
	}
	if chi2 := inclusionChi2(counts, trials*k); chi2 > bound(n+after-1) {
		t.Errorf("merged, then fed: chi-square %.1f over %d positions, bound %.1f", chi2, n+after, bound(n+after-1))
	}
}

// TestReservoirObserveAllocs: once its sample is full, Observe is on
// the engine's per-request path and allocates nothing.
func TestReservoirObserveAllocs(t *testing.T) {
	r := NewReservoir(0, 1)
	for i := 0; i < 2*DefaultReservoirSize; i++ {
		r.Observe(time.Duration(i))
	}
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(10_000, func() { d++; r.Observe(d) }); allocs != 0 {
		t.Fatalf("warmed Observe allocates %.1f times", allocs)
	}
}

// BenchmarkReservoirObserve is one platform's latency record over the
// traffic a city400k workload sends it: a default-size reservoir fed
// its first 180k observations, filling and then replacing. ns/observe
// is the cost per request.
func BenchmarkReservoirObserve(b *testing.B) {
	const n = 180_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReservoir(0, int64(i))
		for j := 0; j < n; j++ {
			r.Observe(time.Duration(j))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/observe")
}
