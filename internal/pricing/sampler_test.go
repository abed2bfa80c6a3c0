package pricing

import (
	"math"
	"math/rand"
	"testing"
)

// perWorkerInstanceMean is the reference sampler the group draw replaced:
// Algorithm 2 as written, every probe asking each worker in turn for an
// independent Bernoulli(pr(v', w)) decision until one accepts. It draws
// from rng directly and returns the mean instance contribution before
// the floor clamp, like TableQuoter.instanceMean.
func perWorkerInstanceMean(mc MonteCarlo, value float64, group []*History, rng *rand.Rand) float64 {
	anyAccepts := func(payment float64) bool {
		for _, h := range group {
			if rng.Float64() < h.AcceptProb(payment) {
				return true
			}
		}
		return false
	}
	ns := mc.Instances()
	eps := epsilonFor(value)
	sum := 0.0
	for i := 0; i < ns; i++ {
		if !anyAccepts(value) {
			sum += value + eps
			continue
		}
		vl, vh := 0.0, value
		vm := vh / 2
		for vm-vl > mc.Xi*value {
			if anyAccepts(vm) {
				vh = vm
			} else {
				vl = vm
			}
			vm = (vh-vl)/2 + vl
		}
		sum += vl
	}
	return sum / float64(ns)
}

// linearInstanceMean is the group-draw sampler as it ran before the
// dichotomy tree: every probe recomputes its bracket and scans the
// per-quote payment cache (cachedGroupProb). It is the oracle the tree
// walk is held to, bit for bit and counter for counter.
func linearInstanceMean(q *TableQuoter, value float64, group []*History, rng *rand.Rand, s *Scratch) float64 {
	s.pays, s.probs = s.pays[:0], s.probs[:0]
	ns := q.MC.Instances()
	eps := epsilonFor(value)
	pFull := q.groupProb(value, group)
	sum := 0.0
	for i := 0; i < ns; i++ {
		if rng.Float64() >= pFull {
			sum += value + eps
			continue
		}
		vl, vh := 0.0, value
		vm := vh / 2
		for vm-vl > q.MC.Xi*value {
			if rng.Float64() < q.cachedGroupProb(vm, group, s) {
				vh = vm
			} else {
				vl = vm
			}
			vm = (vh-vl)/2 + vl
		}
		sum += vl
	}
	return sum / float64(ns)
}

// TestTreeWalkMatchesLinearCache holds instanceMean's dichotomy tree to
// linearInstanceMean: the same bits and the same Stats over random
// groups (empty histories and duplicate values included) at random Xi in
// (0,1), half of them log-uniform down to 1e-6 so the trees run deep.
// One scratch serves every quote of each side, as in a matcher.
func TestTreeWalkMatchesLinearCache(t *testing.T) {
	gen := rand.New(rand.NewSource(35))
	treeS, linS := NewScratch(), NewScratch()
	for trial := 0; trial < 300; trial++ {
		xi := gen.Float64()
		if trial%2 == 0 {
			xi = math.Pow(10, -6*gen.Float64())
		}
		if !(xi > 0 && xi < 1) {
			continue
		}
		mc := MonteCarlo{Xi: xi, Eta: 0.2 + 0.7*gen.Float64()}
		group := make([]*History, 1+gen.Intn(30))
		for i := range group {
			group[i] = randHistory(t, gen, gen.Intn(25), 60)
		}
		value := 0.5 + gen.Float64()*70
		seed := gen.Int63()
		tree, lin := NewQuoter(mc), NewQuoter(mc)
		got := tree.instanceMean(value, group, rand.New(rand.NewSource(seed)), treeS)
		want := linearInstanceMean(lin, value, group, rand.New(rand.NewSource(seed)), linS)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (Xi %v, %d workers, value %v): tree %v, linear cache %v", trial, xi, len(group), value, got, want)
		}
		if tree.Stats() != lin.Stats() {
			t.Fatalf("trial %d (Xi %v): tree stats %+v, linear cache %+v", trial, xi, tree.Stats(), lin.Stats())
		}
	}
}

// exactInstanceMean is the expectation of one Algorithm 2 instance: the
// dichotomy is a walk down a binary tree whose branch probabilities are
// the group acceptance probabilities at the probed payments, so
// E = P(reject at v)*(v+eps) + sum over leaves P(leaf)*v_l, in closed
// form over at most 2^d leaves.
func exactInstanceMean(mc MonteCarlo, value float64, group []*History) float64 {
	var walk func(vl, vh float64) float64
	walk = func(vl, vh float64) float64 {
		vm := (vh-vl)/2 + vl
		if !(vm-vl > mc.Xi*value) {
			return vl
		}
		p := groupAcceptProb(vm, group)
		return p*walk(vl, vm) + (1-p)*walk(vm, vh)
	}
	p := groupAcceptProb(value, group)
	return (1-p)*(value+epsilonFor(value)) + p*walk(0, value)
}

// samplerCase is one group the distribution test quotes.
type samplerCase struct {
	name  string
	value float64
	group []*History
}

// samplerGroups are the group shapes the distribution test sweeps: the
// edge cases by hand, then random groups of every size up to the
// matchers' cap of 24.
func samplerGroups(t *testing.T, rng *rand.Rand) []samplerCase {
	dup := mustHistory([]float64{3, 3, 3, 7, 7, 12})
	cases := []samplerCase{
		{"single", 10, []*History{mustHistory([]float64{2, 5, 8, 11})}},
		{"single-deterministic", 10, []*History{mustHistory([]float64{4})}},
		{"empty-history", 10, []*History{mustHistory(nil), mustHistory([]float64{6, 9})}},
		{"all-unaffordable", 10, []*History{mustHistory([]float64{50}), mustHistory([]float64{20, 30})}},
		{"one-affordable", 10, []*History{mustHistory([]float64{50}), mustHistory([]float64{9, 40, 60})}},
		{"duplicate-values", 10, []*History{dup, mustHistory([]float64{7, 7})}},
		{"duplicate-workers", 10, []*History{dup, dup, dup}},
	}
	for _, n := range []int{1, 2, 5, 12, 24} {
		group := make([]*History, n)
		for i := range group {
			group[i] = randHistory(t, rng, 1+rng.Intn(25), 60)
		}
		cases = append(cases, samplerCase{name: "random", value: 5 + rng.Float64()*40, group: group})
	}
	return cases
}

// TestSamplersMatchExactExpectation proves the distribution, not the
// bits: for every group the mean over many seeds of the group-draw
// sampler and of the per-worker reference must each lie within four
// standard errors of the exact expectation of an Algorithm 2 instance.
func TestSamplersMatchExactExpectation(t *testing.T) {
	const seeds = 400
	mc := DefaultMonteCarlo
	q := NewQuoter(mc)
	s := NewScratch()
	for _, tc := range samplerGroups(t, rand.New(rand.NewSource(2020))) {
		want := exactInstanceMean(mc, tc.value, tc.group)
		check := func(sampler string, draw func(rng *rand.Rand) float64) {
			var sum, sumSq float64
			for seed := int64(1); seed <= seeds; seed++ {
				x := draw(rand.New(rand.NewSource(seed)))
				sum += x
				sumSq += x * x
			}
			mean := sum / seeds
			se := math.Sqrt(math.Max(sumSq/seeds-mean*mean, 0) / seeds)
			// A degenerate group (every probability 0 or 1) has zero
			// variance; allow float rounding of the mean itself.
			if tol := 4*se + 1e-9*tc.value; math.Abs(mean-want) > tol {
				t.Errorf("%s (%d workers, value %.3f): %s mean %v, exact %v, |diff| %v > %v",
					tc.name, len(tc.group), tc.value, sampler, mean, want, math.Abs(mean-want), tol)
			}
		}
		check("group draw", func(rng *rand.Rand) float64 { return q.instanceMean(tc.value, tc.group, rng, s) })
		check("per-worker", func(rng *rand.Rand) float64 { return perWorkerInstanceMean(mc, tc.value, tc.group, rng) })
	}
}

// TestMinOuterPaymentProbeBudget pins the cost the group draw promises:
// one draw per probe (at Xi = 0.1 an instance makes at most 4), and
// per-worker evaluations only for the distinct payments probed (the full
// price plus the 7 nodes of the dyadic ladder), however many instances
// run.
func TestMinOuterPaymentProbeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	group := make([]*History, 24)
	for i := range group {
		group[i] = randHistory(t, rng, 20, 60)
	}
	q := NewQuoter(DefaultMonteCarlo)
	src := &countingSource{Source: rand.NewSource(1)}
	if _, err := q.MinOuterPayment(30, group, rand.New(src), NewScratch()); err != nil {
		t.Fatal(err)
	}
	ns := int64(DefaultMonteCarlo.Instances())
	if src.n < ns || src.n > 4*ns {
		t.Errorf("%d draws for %d instances, want between 1 and 4 per instance", src.n, ns)
	}
	st := q.Stats()
	// Dichotomy probes are the draws past each instance's opening one;
	// all but the first at each ladder node are cache hits.
	if misses := src.n - ns - st.TableHits; misses < 0 || misses > 7 {
		t.Errorf("%d dichotomy probes, %d answered from the payment cache: %d ladder nodes evaluated, want 0..7",
			src.n-ns, st.TableHits, misses)
	}
	if evals := st.ProbEvals - st.TableHits; evals > 8*int64(len(group)) {
		t.Errorf("%d per-worker evaluations, want at most 8 payments x %d workers", evals, len(group))
	}
}

// countingSource counts the draws taken from the wrapped source.
type countingSource struct {
	rand.Source
	n int64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.Source.Int63()
}

// constSource is a rand.Source stuck at one value: 0 makes Float64
// return exactly 0, topDraw its largest value below 1.
type constSource int64

func (c constSource) Int63() int64 { return int64(c) }
func (constSource) Seed(int64)     {}

// topDraw is the largest Int63 that Float64 (Int63 / 2^63, redrawn when
// it rounds to 1) maps below 1: 2^63 - 2^10, i.e. 1 - 2^-53.
const topDraw = math.MaxInt64 &^ (1<<10 - 1)

// TestZeroProbabilityNeverAccepts is the regression test for the
// u <= p comparisons: Float64 returns exactly 0 with probability 2^-53,
// and a worker with pr = 0 (Definition 3.1) must still decline, while
// pr = 1 must accept on every draw.
func TestZeroProbabilityNeverAccepts(t *testing.T) {
	zero := rand.New(constSource(0))
	if u := zero.Float64(); u != 0 {
		t.Fatalf("stub source draws %v, want exactly 0", u)
	}
	unaffordable := mustHistory([]float64{50})
	if unaffordable.Accepts(10, zero) {
		t.Error("a worker with acceptance probability 0 accepted on a draw of exactly 0")
	}
	est, err := NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{unaffordable}, zero, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if est <= 10 {
		t.Errorf("estimate %v <= value: a group with acceptance probability 0 accepted on a draw of exactly 0", est)
	}

	top := rand.New(constSource(topDraw))
	if u := top.Float64(); u != 1-0x1p-53 {
		t.Fatalf("stub source draws %v, want 1 - 2^-53", u)
	}
	certain := mustHistory([]float64{5})
	for _, rng := range []*rand.Rand{zero, top} {
		if !certain.Accepts(10, rng) {
			t.Error("a worker with acceptance probability 1 declined")
		}
	}
	if est, err = NewQuoter(DefaultMonteCarlo).MinOuterPayment(10, []*History{certain}, top, NewScratch()); err != nil || est > 10 {
		t.Errorf("estimate %v (err %v) with a certain acceptor on the largest draw, want <= value", est, err)
	}
}
