package pricing

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Stats are a TableQuoter's cumulative counters. Read them after the runs
// driving the quoter have finished; they are plain integers updated on
// the quoter's goroutine.
type Stats struct {
	// Quote counts by method.
	RevenueQuotes    int64 `json:"revenue_quotes"`
	ThresholdQuotes  int64 `json:"threshold_quotes"`
	MonteCarloQuotes int64 `json:"monte_carlo_quotes"`
	// ProbEvals counts per-worker pr(v', w) evaluations performed while
	// quoting plus the Monte-Carlo probes answered without one (a
	// dichotomy node already probed, or a payment already evaluated in
	// the same quote); TableHits counts the latter alone.
	ProbEvals int64 `json:"prob_evals"`
	TableHits int64 `json:"table_hits"`
	// ScratchReuses counts quote calls that arrived with a caller-owned
	// Scratch; ScratchAllocs the calls that had to allocate one.
	ScratchReuses int64 `json:"scratch_reuses"`
	ScratchAllocs int64 `json:"scratch_allocs"`
}

// Add folds another quoter's counters into s.
func (s *Stats) Add(o Stats) {
	s.RevenueQuotes += o.RevenueQuotes
	s.ThresholdQuotes += o.ThresholdQuotes
	s.MonteCarloQuotes += o.MonteCarloQuotes
	s.ProbEvals += o.ProbEvals
	s.TableHits += o.TableHits
	s.ScratchReuses += o.ScratchReuses
	s.ScratchAllocs += o.ScratchAllocs
}

// TableQuoter is the pricing seam the matchers drive: every quote method
// takes an explicit per-goroutine Scratch so the hot path performs no
// per-call allocation. One TableQuoter (and one Scratch) belongs to one
// matcher goroutine and nothing inside fans out, so it never needs
// locking. Acceptance probabilities are History.AcceptProb's, a binary
// search of the worker's sorted values, and every reusable buffer lives
// in the caller's Scratch. The table of the name is the per-quote
// dichotomy tree with its payment cache, the one Stats.TableHits counts.
type TableQuoter struct {
	// MC configures the Algorithm 2 estimator behind MinOuterPayment.
	MC MonteCarlo

	stats Stats
}

// NewQuoter returns a quoter for the given Monte-Carlo configuration.
func NewQuoter(mc MonteCarlo) *TableQuoter { return &TableQuoter{MC: mc} }

// Stats returns the cumulative quote counters.
func (q *TableQuoter) Stats() Stats { return q.stats }

// breakpoint is one step of the group acceptance CDF: at payment pay,
// worker w's acceptance probability becomes newP.
type breakpoint struct {
	pay  float64
	w    int
	newP float64
}

// Scratch is the per-goroutine buffer set of a TableQuoter. A Scratch must
// not be shared between goroutines; matchers keep one for the lifetime
// of a run.
type Scratch struct {
	group []*History // candidate-group buffer for matchers (Group)
	bps   []breakpoint
	cur   []float64
	// Per-quote dichotomy tree of Algorithm 2: every instance walks the
	// same binary tree of brackets, so each visited node is built once
	// (nodes[0] is the root) and later visits only draw and follow an
	// index (7 interior nodes at Xi = 0.1).
	nodes []dichotomyNode
	// Per-quote payment cache behind a node's first probe: probs[i] is
	// the group acceptance probability at pays[i]. It answers a node
	// whose payment rounds to one an earlier node already evaluated.
	pays  []float64
	probs []float64
}

// dichotomyNode is one bracket [vl, vh] of Algorithm 2's dichotomy. An
// interior node probes its payment vm and moves to child[1] on an
// accept (vh = vm) or child[0] on a decline (vl = vm); a leaf
// contributes vl. Child index 0 means not built yet (the root is
// nobody's child), and p is valid once probed is set.
type dichotomyNode struct {
	vl, vh, vm float64
	p          float64
	child      [2]int32
	interior   bool
	probed     bool
}

// addNode appends the node for bracket [vl, vh] with midpoint vm and
// returns its index; res is the dichotomy's resolution Xi*value.
func (s *Scratch) addNode(vl, vh, vm, res float64) int32 {
	s.nodes = append(s.nodes, dichotomyNode{vl: vl, vh: vh, vm: vm, interior: vm-vl > res})
	return int32(len(s.nodes) - 1)
}

// NewScratch returns a ready Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Group returns the scratch's candidate-group buffer resized to n;
// matchers fill it instead of allocating a fresh []*History per request.
func (s *Scratch) Group(n int) []*History {
	if cap(s.group) < n {
		s.group = make([]*History, n)
	}
	return s.group[:n]
}

// ensure charges the quoter's scratch counters and returns a usable
// scratch, allocating only when the caller passed nil.
func (q *TableQuoter) ensure(s *Scratch) *Scratch {
	if s != nil {
		q.stats.ScratchReuses++
		return s
	}
	q.stats.ScratchAllocs++
	return NewScratch()
}

// groupProb evaluates pr(v', W) = 1 - prod_w (1 - pr(v', w)) of
// Definition 4.1.
func (q *TableQuoter) groupProb(payment float64, group []*History) float64 {
	noneAccepts := 1.0
	for _, h := range group {
		noneAccepts *= 1 - h.AcceptProb(payment)
		q.stats.ProbEvals++
		if noneAccepts == 0 {
			break
		}
	}
	return 1 - noneAccepts
}

// cachedGroupProb is groupProb through the scratch's per-quote payment
// cache.
func (q *TableQuoter) cachedGroupProb(payment float64, group []*History, s *Scratch) float64 {
	for i, p := range s.pays {
		if p == payment {
			q.stats.ProbEvals++
			q.stats.TableHits++
			return s.probs[i]
		}
	}
	p := q.groupProb(payment, group)
	s.pays = append(s.pays, payment)
	s.probs = append(s.probs, p)
	return p
}

// MinOuterPayment runs Algorithm 2: it estimates the minimum payment at
// which request value `value` would be accepted by at least one of the
// eligible outer workers, whose acceptance curves are given by `group`.
//
// Each of the n_s instances first probes the full price: if no worker
// accepts even value itself, the instance contributes value+epsilon
// (signalling "reject this request": the caller compares the estimate
// against value, Algorithm 1 line 13). Otherwise a dichotomy over
// [0, value] narrows the acceptance frontier of this instance to within
// Xi*value, resampling the group's decision at every probe. The result
// is the mean over instances, deterministic given rng's state.
//
// Every probe takes one uniform draw. The paper's probe asks every
// worker for an independent Bernoulli(pr(v', w)) decision and uses only
// "did anyone accept"; that event is Bernoulli(pr(v', W)), so drawing it
// directly gives every instance's v_l exactly the distribution
// Algorithm 2 specifies while consuming one draw from rng per probe
// instead of one per worker.
func (q *TableQuoter) MinOuterPayment(value float64, group []*History, rng *rand.Rand, s *Scratch) (float64, error) {
	if err := q.MC.Validate(); err != nil {
		return 0, err
	}
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return 0, errBadValue(value)
	}
	q.stats.MonteCarloQuotes++
	if len(group) == 0 {
		return value + epsilonFor(value), nil
	}
	est := q.instanceMean(value, group, rng, q.ensure(s))
	// No payment below the cheapest value any group member ever accepted
	// can attract anyone (Definition 3.1 gives it probability zero), so
	// the minimum outer payment is clamped up to that exact floor. The
	// dichotomy's v_l can undershoot it by up to Xi*value.
	if floor := groupFloor(group); est < floor {
		est = floor
	}
	return est, nil
}

// instanceMean runs the n_s sampling instances of Algorithm 2 against a
// non-empty group and returns the mean of their contributions. A probe
// accepts on the strict u < P: Float64 is uniform on [0,1), so
// P(u < P) = P, a zero probability never accepts and P = 1 always does.
//
// Each instance runs the dichotomy
//
//	vl, vh, vm := 0, value, value/2
//	while vm-vl > Xi*value: (vh = vm on an accept, else vl = vm); vm = (vh-vl)/2 + vl
//
// and a bracket depends only on the path to it, so the instances share
// one tree of brackets in the scratch: a node is built, with exactly
// these float expressions, the first time an instance reaches it, and
// its probability is evaluated at its first probe. A repeat probe counts
// one ProbEvals and one TableHits, so the counters are those of a
// payment-cache scan at every probe (the tests' linearInstanceMean).
func (q *TableQuoter) instanceMean(value float64, group []*History, rng *rand.Rand, s *Scratch) float64 {
	s.pays, s.probs = s.pays[:0], s.probs[:0]
	s.nodes = s.nodes[:0]
	ns := q.MC.Instances()
	eps := epsilonFor(value)
	res := q.MC.Xi * value
	s.addNode(0, value, value/2, res)
	// Every instance opens with the same probe at the full price.
	pFull := q.groupProb(value, group)
	var hits int64
	sum := 0.0
	for i := 0; i < ns; i++ {
		if rng.Float64() >= pFull {
			sum += value + eps
			continue
		}
		n := int32(0)
		for s.nodes[n].interior {
			nd := &s.nodes[n]
			if nd.probed {
				hits++
			} else {
				nd.p = q.cachedGroupProb(nd.vm, group, s)
				nd.probed = true
			}
			// The branch taken is a coin flip; indexing the child by
			// the outcome keeps it out of the branch predictor.
			accept := 0
			if rng.Float64() < nd.p {
				accept = 1
			}
			c := nd.child[accept]
			if c == 0 {
				vl, vh := nd.vm, nd.vh
				if accept == 1 {
					vl, vh = nd.vl, nd.vm
				}
				// addNode may move s.nodes: store through s.nodes[n].
				c = s.addNode(vl, vh, (vh-vl)/2+vl, res)
				s.nodes[n].child[accept] = c
			}
			n = c
		}
		// The instance contributes the lower bracket v_l: Section III-B2
		// states the minimum outer payment "is approximated by these
		// v_l". Taking the bracket's low end (rather than the midpoint)
		// keeps the estimate at or below each instance's sampled
		// acceptance frontier, which is what produces the paper's
		// characteristically low DemCOM acceptance ratio (~17%): the
		// platform offers the least it might get away with.
		sum += s.nodes[n].vl
	}
	q.stats.ProbEvals += hits
	q.stats.TableHits += hits
	return sum / float64(ns)
}

// MaxExpectedRevenue computes the maximum expect revenue of Definition
// 4.1 exactly: it maximizes E(v') = (value - v') * pr(v', W) over
// v' in (0, value], where pr(v', W) = 1 - prod_w (1 - pr(v', w)) is the
// probability at least one eligible worker accepts.
//
// pr(., W) is a right-continuous step function that only jumps at the
// workers' history values, while (value - v') strictly decreases between
// jumps — so the maximum is attained at a breakpoint (a history value)
// or at no payment at all. Sweeping the breakpoint union <= value (plus
// value itself) in ascending payment order with an incrementally
// maintained decline product is therefore exact, in O(B log B) for B
// history points; the breakpoint and per-worker probability buffers come
// from the scratch.
//
// The paper obtains this quantity approximately (within 1/e) from the
// matching-based dynamic pricing of Tong et al. [14]; computing it
// exactly over the same empirical acceptance model strictly strengthens
// RamCOM's incentive step while preserving its interface — RamCOM's
// competitive ratio only improves. The 1/e-approximate behaviour is
// available as ThresholdQuote for the ablation study.
func (q *TableQuoter) MaxExpectedRevenue(value float64, group []*History, s *Scratch) (Quote, error) {
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return Quote{}, errBadValue(value)
	}
	q.stats.RevenueQuotes++
	if len(group) == 0 {
		return Quote{}, nil // nobody to pay; zero quote means "reject"
	}
	s = q.ensure(s)

	// Collect the union of breakpoints: each worker's acceptance curve
	// jumps exactly at its distinct history values.
	bps := s.bps[:0]
	for wi, h := range group {
		if h.Len() == 0 {
			// Empty history: accepts any positive payment (probability 1
			// from the smallest representable payment).
			bps = append(bps, breakpoint{pay: math.Nextafter(0, 1), w: wi, newP: 1})
			continue
		}
		n := float64(len(h.values))
		for i, v := range h.values {
			if v > value {
				break
			}
			// Skip duplicates; the final probability at v is the count
			// of values <= v over N, i.e. set at the LAST copy of v.
			if i+1 < len(h.values) && h.values[i+1] == v {
				continue
			}
			bps = append(bps, breakpoint{pay: v, w: wi, newP: float64(i+1) / n})
		}
	}
	s.bps = bps // keep the grown buffer
	if len(bps) == 0 {
		return Quote{}, nil // nobody in the group can be afforded
	}
	slices.SortFunc(bps, func(a, b breakpoint) int { return cmp.Compare(a.pay, b.pay) })

	// Sweep the breakpoints in ascending payment order, maintaining the
	// product of per-worker decline probabilities incrementally.
	if cap(s.cur) < len(group) {
		s.cur = make([]float64, len(group))
	}
	cur := s.cur[:len(group)]
	for i := range cur {
		cur[i] = 0
	}
	declineProd := 1.0 // product of (1 - cur[w]) over workers with cur < 1
	zeros := 0         // number of workers with cur == 1

	best := Quote{}
	for i := 0; i < len(bps); {
		pay := bps[i].pay
		for ; i < len(bps) && bps[i].pay == pay; i++ {
			b := bps[i]
			old := cur[b.w]
			if old == 1 {
				zeros--
			} else {
				declineProd /= 1 - old
			}
			if b.newP == 1 {
				zeros++
			} else {
				declineProd *= 1 - b.newP
			}
			cur[b.w] = b.newP
		}
		p := 1.0
		if zeros == 0 {
			p = 1 - declineProd
		}
		if p <= 0 {
			continue
		}
		e := (value - pay) * p
		// Prefer strictly better expected revenue; on ties prefer the
		// higher payment (better acceptance, same revenue).
		if e > best.ExpectedRev+1e-15 || (almostEq(e, best.ExpectedRev) && pay > best.Payment) {
			best = Quote{Payment: pay, AcceptProb: p, ExpectedRev: e}
		}
	}
	return best, nil
}

// ThresholdQuote is the 1/e-style randomized threshold pricing used as
// an ablation: it offers a payment of value/e' where e' is drawn so the
// expected revenue is within 1/e of the maximum in the worst case over
// acceptance curves (the guarantee of the pricing scheme RamCOM cites).
// Concretely it quotes the payment value * exp(-u) with u uniform in
// (0, 1], mirroring the exponential-threshold trick of [14]'s analysis.
func (q *TableQuoter) ThresholdQuote(value float64, group []*History, u float64, s *Scratch) (Quote, error) {
	if value <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return Quote{}, errBadValue(value)
	}
	if u <= 0 || u > 1 {
		return Quote{}, errBadThreshold(u)
	}
	q.stats.ThresholdQuotes++
	if len(group) == 0 {
		return Quote{}, nil
	}
	pay := value * math.Exp(-u)
	p := q.groupProb(pay, group)
	return Quote{Payment: pay, AcceptProb: p, ExpectedRev: (value - pay) * p}, nil
}

func errBadValue(v float64) error {
	return fmt.Errorf("pricing: request value %v must be positive and finite", v)
}

func errBadThreshold(u float64) error {
	return fmt.Errorf("pricing: threshold draw u = %v outside (0,1]", u)
}
