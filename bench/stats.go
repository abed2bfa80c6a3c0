package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (p in [0,1]) of vals by linear
// interpolation between closest ranks — the same rule numpy's default
// and the A/A script use, so a p50 printed here and a median computed
// there agree. vals is not modified. An empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over an already ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, 0.25), percentileSorted(s, 0.5), percentileSorted(s, 0.75)
}

// passSummary reduces one number per pass (its throughput, or its own
// latency percentile) to the value the run reports: the median over the
// passes. Both quartiles are kept beside it so the within-run spread
// stays visible in the log.
type passSummary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(perPass []float64) passSummary {
	q1, q2, q3 := quartiles(perPass)
	return passSummary{Median: q2, Q1: q1, Q3: q3, N: len(perPass)}
}

// nsToMs converts a slice of nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
