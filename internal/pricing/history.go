// Package pricing implements the incentive-mechanism substrate of cross
// online matching:
//
//   - the worker acceptance model of Definition 3.1 (History),
//   - the Monte-Carlo minimum outer payment estimator of Algorithm 2
//     (MinOuterPayment), used by DemCOM,
//   - the maximum expected revenue pricing of Definition 4.1
//     (MaxExpectedRevenue), the quantity the paper delegates to the
//     matching-based dynamic pricing of Tong et al. SIGMOD'18 [14] and
//     which we compute exactly over the empirical acceptance curve,
//   - a supply/demand grid pricing signal (Grid in grid.go) in the
//     spirit of [14]'s spatiotemporal model, used in ablations.
//
// All randomized routines take an explicit *rand.Rand so that every
// simulation in the repository is reproducible from a seed.
package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// History is the completed-request value history of a crowd worker,
// kept sorted ascending. It drives the acceptance probability of
// Definition 3.1: pr(v', w) = N(v <= v') / N — the fraction of the
// worker's past completed requests whose value did not exceed the
// offered payment v'.
type History struct {
	values []float64 // sorted ascending
	// CDF table: uniq holds the distinct values ascending and cdf[i] the
	// acceptance probability at payment uniq[i], i.e. (number of values
	// <= uniq[i]) / N computed with the same float64 division AcceptProb
	// performs — so a table lookup is bit-identical to the exact scan.
	// Built eagerly (never lazily: histories are read concurrently under
	// the parallel runtime) by setTable.
	uniq []float64
	cdf  []float64
}

// NewHistory builds a history from completed request values. The input
// slice is copied and sorted; non-positive and non-finite values are
// rejected.
//
// A non-empty history costs one heap allocation, MakeHistory's; the
// History itself is the caller's, on its stack when the pointer does
// not escape.
func NewHistory(values []float64) (*History, error) {
	h, err := MakeHistory(values)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// insertionMax is the longest history MakeHistory puts in order while
// copying it. The generator's histories hold 20 to 60 values in no
// order, a different one at every worker arrival, and sorting one by
// insertion costs a third less than sort.Float64s after the copy
// (BenchmarkNewHistory); past this length the quadratic cost is not
// worth risking on input from outside.
const insertionMax = 64

// MakeHistory is NewHistory by value, for a holder that keeps the
// History inside a record of its own (the hub's per-worker record).
//
// The values, the distinct values and the CDF share one backing
// allocation of 3·len(values) floats. Each is a sub-slice with no spare
// capacity, so Record's append moves the values elsewhere instead of
// growing into the table. Values are validated as they are copied; up
// to insertionMax of them are inserted in order on the way, which for
// ascending input moves nothing, and a longer input is sorted afterwards
// unless the copy found it ascending.
func MakeHistory(values []float64) (History, error) {
	n := len(values)
	if n == 0 {
		return History{}, nil
	}
	backing := make([]float64, 3*n)
	h := History{values: backing[:n:n]}
	short, ascending := n <= insertionMax, true
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return History{}, fmt.Errorf("pricing: history value %d = %v must be positive and finite", i, v)
		}
		ascending = ascending && (i == 0 || values[i-1] <= v)
		j := i
		for ; short && j > 0 && h.values[j-1] > v; j-- {
			h.values[j] = h.values[j-1]
		}
		h.values[j] = v
	}
	if !short && !ascending {
		sort.Float64s(h.values)
	}
	h.setTable(backing[n:])
	return h, nil
}

// setTable computes the uniq/cdf acceptance table from the sorted,
// non-empty values into room, which holds 2·len(values) floats: one
// half for each, so the number of distinct values need not be known
// first. O(n).
func (h *History) setTable(room []float64) {
	n := len(h.values)
	d := 0
	fn := float64(n)
	for i, v := range h.values {
		if i+1 < n && h.values[i+1] == v {
			continue // probability at a value is set by its last copy
		}
		room[d] = v
		room[n+d] = float64(i+1) / fn
		d++
	}
	h.uniq, h.cdf = room[:d:d], room[n:n+d:n+d]
}

// MustHistory is NewHistory for static test fixtures; it panics on error.
func MustHistory(values []float64) *History {
	h, err := NewHistory(values)
	if err != nil {
		panic(err)
	}
	return h
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
// payment (and 0 otherwise). Workload generators always provide
// histories; the convention only matters for hand-built inputs.
func (h *History) AcceptProb(payment float64) float64 {
	if payment <= 0 {
		return 0
	}
	n := h.Len()
	if n == 0 {
		return 1
	}
	// Number of values <= payment.
	k := sort.SearchFloat64s(h.values, math.Nextafter(payment, math.Inf(1)))
	return float64(k) / float64(n)
}

// AcceptProbTable returns pr(v', w) from the precomputed CDF table: the
// probability at the largest distinct value <= payment. It is
// bit-identical to AcceptProb for every payment (the cdf entries are the
// same float64 divisions the scan performs) while searching the distinct
// values only; the fuzz test FuzzAcceptProbTableEquivalence guards the
// equivalence.
func (h *History) AcceptProbTable(payment float64) float64 {
	if payment <= 0 {
		return 0
	}
	if len(h.uniq) == 0 {
		if h.Len() == 0 {
			return 1
		}
		return 0 // unreachable: the table exists whenever values do
	}
	// Index of the last uniq value <= payment.
	k := sort.SearchFloat64s(h.uniq, math.Nextafter(payment, math.Inf(1)))
	if k == 0 {
		return 0
	}
	return h.cdf[k-1]
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

// Record appends a newly completed request value, keeping order. It is
// how the simulation closes the loop: an outer worker who served a
// cooperative request gains a history point that shifts its future
// acceptance curve.
func (h *History) Record(value float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) || value <= 0 {
		return fmt.Errorf("pricing: recorded value %v must be positive and finite", value)
	}
	i := sort.SearchFloat64s(h.values, value)
	h.values = append(h.values, 0)
	copy(h.values[i+1:], h.values[i:])
	h.values[i] = value
	h.setTable(make([]float64, 2*len(h.values)))
	return nil
}

// GroupAcceptProb returns pr(v', W) per Definition 4.1: the probability
// that at least one worker of the group accepts payment v', assuming
// independent decisions: 1 - prod_w (1 - pr(v', w)).
func GroupAcceptProb(payment float64, group []*History) float64 {
	if payment <= 0 || len(group) == 0 {
		return 0
	}
	noneAccepts := 1.0
	for _, h := range group {
		noneAccepts *= 1 - h.AcceptProb(payment)
		if noneAccepts == 0 {
			return 1
		}
	}
	return 1 - noneAccepts
}
