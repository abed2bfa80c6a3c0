// Package pricing implements the incentive-mechanism substrate of cross
// online matching:
//
//   - the worker acceptance model of Definition 3.1 (History),
//   - the Monte-Carlo minimum outer payment estimator of Algorithm 2
//     (MinOuterPayment), used by DemCOM,
//   - the maximum expected revenue pricing of Definition 4.1
//     (MaxExpectedRevenue), the quantity the paper delegates to the
//     matching-based dynamic pricing of Tong et al. SIGMOD'18 [14] and
//     which we compute exactly over the empirical acceptance curve.
//
// All randomized routines take an explicit *rand.Rand so that every
// simulation in the repository is reproducible from a seed.
package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// History is the completed-request value history of a crowd worker: its
// values in ascending order and nothing else. It drives the acceptance
// probability of Definition 3.1: pr(v', w) = N(v <= v') / N — the
// fraction of the worker's past completed requests whose value did not
// exceed the offered payment v'. A History is never written after it is
// built, which is what lets it share its caller's slice.
type History struct {
	values []float64 // sorted ascending
}

// NewHistory is MakeHistory behind a pointer; the History itself is the
// caller's, on its stack when the pointer does not escape.
func NewHistory(values []float64) (*History, error) {
	h, err := MakeHistory(values)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// MakeHistory builds a history from completed request values, by value
// for a holder that keeps it inside a record of its own (an
// online.Pool slot). Non-positive and non-finite values are rejected.
//
// Ascending input is shared, not copied: the history is the caller's
// slice with no spare capacity, at no allocation, and the caller must
// not write to it afterwards (core.Worker.History says the same). Any
// other order is copied once and the copy sorted; the input is left as
// it was.
func MakeHistory(values []float64) (History, error) {
	ascending := true
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return History{}, fmt.Errorf("pricing: history value %d = %v must be positive and finite", i, v)
		}
		ascending = ascending && (i == 0 || values[i-1] <= v)
	}
	if ascending {
		return History{values: values[:len(values):len(values)]}, nil
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	slices.Sort(sorted)
	return History{values: sorted}, nil
}

// Len returns the number of completed history requests N.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	return len(h.values)
}

// AcceptProb returns pr(v', w) per Definition 3.1. A worker with an
// empty history has never been observed rejecting a price, so the
// vacuous reading of N(v<=v')/N is used: probability 1 for any positive
// payment (and 0 otherwise, NaN included). Generated streams always
// carry histories, but a live client may post a worker without one, so
// online.Pool.AppendCandidates offers no such worker as an outer
// candidate: at any positive payment, however small, it would accept.
func (h *History) AcceptProb(payment float64) float64 {
	if !(payment > 0) {
		return 0
	}
	n := h.Len()
	if n == 0 {
		return 1
	}
	// Number of values <= payment: an upper-bound binary search, lo is
	// the first index whose value exceeds the payment.
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.values[m] <= payment {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return float64(lo) / float64(n)
}

// Accepts samples the worker's decision for the offered payment
// (Algorithm 1, lines 18-19): it draws x uniform in [0,1) and accepts
// iff x < pr(payment, w). The comparison is strict because Float64 can
// return exactly 0, and a worker with pr = 0 must never accept.
func (h *History) Accepts(payment float64, rng *rand.Rand) bool {
	return rng.Float64() < h.AcceptProb(payment)
}

// Min returns the smallest history value — the lowest payment the worker
// has any chance of accepting — or 0 for an empty history.
func (h *History) Min() float64 {
	if h.Len() == 0 {
		return 0
	}
	return h.values[0]
}

// Max returns the largest history value, or 0 for an empty history.
func (h *History) Max() float64 {
	if h.Len() == 0 {
		return 0
	}
	return h.values[len(h.values)-1]
}

// Values returns the sorted history values. The slice is owned by the
// history and must not be mutated.
func (h *History) Values() []float64 {
	if h == nil {
		return nil
	}
	return h.values
}
