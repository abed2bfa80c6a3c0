package platform

import (
	"fmt"
	"math"
)

// EnsembleSummary aggregates an ensemble's headline metrics.
type EnsembleSummary struct {
	Runs              int
	MeanRevenue       float64
	MeanServed        float64
	MeanCooperative   float64
	MeanAcceptance    float64
	MeanPaymentRate   float64
	MinRevenue        float64
	MaxRevenue        float64
	RevenueStdDevFrac float64 // sample std-dev over mean, 0 for 1 run
}

// Summarize reduces ensemble results to their means and spread.
func Summarize(results []*Result) (EnsembleSummary, error) {
	if len(results) == 0 {
		return EnsembleSummary{}, fmt.Errorf("platform: empty ensemble")
	}
	s := EnsembleSummary{Runs: len(results)}
	revs := make([]float64, len(results))
	for i, r := range results {
		if r == nil {
			return EnsembleSummary{}, fmt.Errorf("platform: nil result at %d", i)
		}
		rev := r.TotalRevenue()
		revs[i] = rev
		s.MeanRevenue += rev
		s.MeanServed += float64(r.TotalServed())
		s.MeanCooperative += float64(r.CooperativeServed())
		s.MeanAcceptance += r.AcceptanceRatio()
		s.MeanPaymentRate += r.MeanPaymentRate()
		if i == 0 || rev < s.MinRevenue {
			s.MinRevenue = rev
		}
		if rev > s.MaxRevenue {
			s.MaxRevenue = rev
		}
	}
	n := float64(len(results))
	s.MeanRevenue /= n
	s.MeanServed /= n
	s.MeanCooperative /= n
	s.MeanAcceptance /= n
	s.MeanPaymentRate /= n
	if len(results) > 1 && s.MeanRevenue > 0 {
		varSum := 0.0
		for _, rev := range revs {
			d := rev - s.MeanRevenue
			varSum += d * d
		}
		s.RevenueStdDevFrac = math.Sqrt(varSum/(n-1)) / s.MeanRevenue
	}
	return s, nil
}
