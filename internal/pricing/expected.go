package pricing

import "math"

// Quote is the outcome of expected-revenue pricing for one cooperative
// request: the payment to offer, the probability any eligible worker
// accepts it, and the resulting expected platform revenue
// (value - payment) * probability.
type Quote struct {
	Payment     float64
	AcceptProb  float64
	ExpectedRev float64
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}
