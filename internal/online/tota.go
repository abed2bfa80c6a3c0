package online

import (
	"math"
	"math/rand"

	"crossmatch/internal/core"
	"crossmatch/internal/trace"
)

// TOTAGreedy is the traditional online task assignment baseline [9]: an
// incoming request is served by the nearest available inner worker whose
// range covers it, or rejected. It never touches outer workers — the
// special case W_out = empty of the COM problem.
type TOTAGreedy struct{ waiting }

// NewTOTAGreedy returns the baseline matcher over a fresh pool.
func NewTOTAGreedy() *TOTAGreedy { return &TOTAGreedy{waiting{pool: NewPool(nil)}} }

// Name implements Matcher.
func (m *TOTAGreedy) Name() string { return "TOTA" }

// RequestArrives implements Matcher.
func (m *TOTAGreedy) RequestArrives(r *core.Request, d *Decision) {
	sp := m.tr.Begin(r)
	t := sp.StageStart()
	w, ok := claimNearestInner(m.pool, r)
	sp.EndStage(trace.StageInner, t)
	if !ok {
		sp.Finish(string(ReasonNoWorkers), 0, 0, 0)
		*d = Decision{Reason: ReasonNoWorkers}
		return
	}
	sp.Finish(string(ReasonInner), 0, 0, 0)
	*d = Decision{
		Served:     true,
		Reason:     ReasonInner,
		Assignment: core.Assignment{Request: r, Worker: w},
	}
}

// claimNearestInner takes the nearest waiting inner worker off the
// waiting list.
func claimNearestInner(pool *Pool, r *core.Request) (*core.Worker, bool) {
	w, ok := pool.Nearest(r)
	if ok {
		pool.Remove(w.ID)
	}
	return w, ok
}

// GreedyRT is the randomized-threshold greedy of [9] (Greedy-RT): it
// draws k uniformly from {0, .., theta-1} with theta =
// ceil(ln(Umax+1)), serves only requests whose value exceeds e^k, and
// assigns them greedily to the nearest available inner worker. Its
// competitive ratio under the adversarial model is
// 1/(2e * ceil(ln(Umax+1))); the paper uses it as the revenue-maximizing
// single-platform reference in the competitive-ratio discussion.
type GreedyRT struct {
	waiting
	threshold float64
}

// NewGreedyRT builds the matcher; maxValue is the a-priori bound Umax on
// request values (as in [9], assumed known), rng drives the draw of k.
func NewGreedyRT(maxValue float64, rng *rand.Rand) *GreedyRT {
	theta := int(math.Ceil(math.Log(maxValue + 1)))
	if theta < 1 {
		theta = 1
	}
	k := rng.Intn(theta) // k in {0, .., theta-1}
	return &GreedyRT{
		waiting:   waiting{pool: NewPool(nil)},
		threshold: math.Exp(float64(k)),
	}
}

// Name implements Matcher.
func (m *GreedyRT) Name() string { return "Greedy-RT" }

// Threshold returns the drawn value threshold e^k.
func (m *GreedyRT) Threshold() float64 { return m.threshold }

// RequestArrives implements Matcher.
func (m *GreedyRT) RequestArrives(r *core.Request, d *Decision) {
	sp := m.tr.Begin(r)
	if r.Value < m.threshold {
		sp.Finish(string(ReasonBelowThreshold), 0, 0, 0)
		*d = Decision{Reason: ReasonBelowThreshold}
		return
	}
	t := sp.StageStart()
	w, ok := claimNearestInner(m.pool, r)
	sp.EndStage(trace.StageInner, t)
	if !ok {
		sp.Finish(string(ReasonNoWorkers), 0, 0, 0)
		*d = Decision{Reason: ReasonNoWorkers}
		return
	}
	sp.Finish(string(ReasonInner), 0, 0, 0)
	*d = Decision{
		Served:     true,
		Reason:     ReasonInner,
		Assignment: core.Assignment{Request: r, Worker: w},
	}
}
