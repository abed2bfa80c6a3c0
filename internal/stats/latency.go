package stats

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Reservoir captures a latency distribution with bounded memory: exact
// count, sum and max, plus a fixed-size uniform sample for percentile
// estimation (Vitter's algorithm R, on the reservoir's own seeded
// generator, never a matcher's). The paper reports mean response times;
// percentiles are what a production platform actually alerts on, and
// the tail is where DemCOM's Monte-Carlo pricing shows up.
type Reservoir struct {
	capacity int
	rng      *rand.Rand
	sample   []time.Duration
	count    int64
	sum      time.Duration
	max      time.Duration
}

// DefaultReservoirSize balances accuracy (~1% percentile error) against
// the per-platform footprint.
const DefaultReservoirSize = 4096

// NewReservoir returns a reservoir of the given capacity (default
// DefaultReservoirSize for non-positive values), seeded for determinism.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = DefaultReservoirSize
	}
	return &Reservoir{
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Observe folds one latency into the reservoir.
func (r *Reservoir) Observe(d time.Duration) {
	r.count++
	r.sum += d
	if d > r.max {
		r.max = d
	}
	if len(r.sample) < r.capacity {
		r.sample = append(r.sample, d)
		return
	}
	if k := r.rng.Int63n(r.count); k < int64(r.capacity) {
		r.sample[k] = d
	}
}

// Count returns the number of observations.
func (r *Reservoir) Count() int64 { return r.count }

// Sum returns the exact total of all observations.
func (r *Reservoir) Sum() time.Duration { return r.sum }

// Max returns the exact maximum observation.
func (r *Reservoir) Max() time.Duration { return r.max }

// Mean returns the exact mean, or 0 with no observations.
func (r *Reservoir) Mean() time.Duration {
	if r.count == 0 {
		return 0
	}
	return r.sum / time.Duration(r.count)
}

// Percentile estimates the q-quantile (q in [0, 1]) from the sample
// using nearest-rank on the sorted sample; 0 with no observations or a
// NaN q. Each call sorts a fresh snapshot — callers needing several
// quantiles should use Quantiles, which sorts once.
func (r *Reservoir) Percentile(q float64) time.Duration {
	if len(r.sample) == 0 || math.IsNaN(q) {
		return 0
	}
	sorted := append([]time.Duration(nil), r.sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return nearestRank(sorted, q)
}

// Quantiles estimates every q in qs (each in [0, 1]) from a single
// sorted snapshot of the sample, so report builders pay one sort per
// reservoir instead of one per quantile. The result aligns with qs; a
// NaN q, like an empty reservoir, yields 0.
func (r *Reservoir) Quantiles(qs []float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(r.sample) == 0 || len(qs) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), r.sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		if !math.IsNaN(q) {
			out[i] = nearestRank(sorted, q)
		}
	}
	return out
}

// nearestRank picks the nearest-rank q-quantile from an ascending
// sample: the ceil(q·N)-th smallest value. q is clamped to [0, 1] and
// must not be NaN.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The epsilon keeps a product that is an integer but for float error
	// (0.07·100 = 7.000000000000001) on its own rank.
	idx := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Merge folds another reservoir's exact aggregates and sample into r.
// The merged sample is a count-weighted draw without replacement from
// both samples: each side's items are taken with probability
// proportional to the observations not yet drawn on that side, so a
// donor summarizing 100 observations cannot displace half the slots of
// a receiver summarizing 100,000 (which the previous flat-probability
// merge did, biasing merged percentiles toward the donor), and each
// observation of either side is in the merged sample with the same
// probability, so Observe keeps sampling at that law.
func (r *Reservoir) Merge(o *Reservoir) {
	if o == nil || o.count == 0 {
		return
	}
	if r.count > 0 && len(o.sample) > 0 {
		r.sample = r.mergeSamples(o)
	} else if len(o.sample) > 0 {
		// Nothing on the receiving side: adopt a uniform subsample of
		// the donor (its capacity may exceed ours).
		r.sample = r.drawFrom(o.sample, r.capacity)
	}
	r.count += o.count
	r.sum += o.sum
	if o.max > r.max {
		r.max = o.max
	}
}

// mergeSamples draws the merged sample: m observations drawn without
// replacement from the union of both sides. Each draw comes from a side
// with probability proportional to its observations not drawn yet (the
// hypergeometric split of a uniform m-subset of the union), and is a
// uniform pick from that side's sample, itself uniform over the side.
// It is exact while neither sample runs out before its side's share.
func (r *Reservoir) mergeSamples(o *Reservoir) []time.Duration {
	rs := append([]time.Duration(nil), r.sample...)
	os := append([]time.Duration(nil), o.sample...)
	m := len(rs) + len(os)
	if m > r.capacity {
		m = r.capacity
	}
	wr, wo := float64(r.count), float64(o.count)
	merged := make([]time.Duration, 0, m)
	for len(merged) < m {
		takeR := len(os) == 0 || (len(rs) > 0 && r.rng.Float64()*(wr+wo) < wr)
		if takeR {
			i := r.rng.Intn(len(rs))
			merged = append(merged, rs[i])
			rs[i] = rs[len(rs)-1]
			rs = rs[:len(rs)-1]
			wr--
		} else {
			j := r.rng.Intn(len(os))
			merged = append(merged, os[j])
			os[j] = os[len(os)-1]
			os = os[:len(os)-1]
			wo--
		}
	}
	return merged
}

// drawFrom returns up to n items drawn uniformly without replacement.
func (r *Reservoir) drawFrom(src []time.Duration, n int) []time.Duration {
	s := append([]time.Duration(nil), src...)
	if n >= len(s) {
		return s
	}
	for i := 0; i < n; i++ {
		j := i + r.rng.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return s[:n]
}
