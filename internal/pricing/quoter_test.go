package pricing

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// randHistory builds a history of n values drawn from rng in (0, cap].
func randHistory(tb testing.TB, rng *rand.Rand, n int, cap float64) *History {
	tb.Helper()
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Nextafter(0, 1) + rng.Float64()*cap
		if rng.Intn(3) == 0 && i > 0 {
			vs[i] = vs[rng.Intn(i)] // force duplicates
		}
	}
	h, err := NewHistory(vs)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// countProb is Definition 3.1 read literally: the values not above the
// payment, counted one by one, over N, and 0 for a payment that is not
// positive (NaN included). It is the oracle AcceptProb's binary search
// is held to.
func countProb(values []float64, payment float64) float64 {
	if !(payment > 0) {
		return 0
	}
	if len(values) == 0 {
		return 1
	}
	k := 0
	for _, v := range values {
		if v <= payment {
			k++
		}
	}
	return float64(k) / float64(len(values))
}

// FuzzAcceptProbMatchesCount: for every history and payment, AcceptProb
// returns the exact bits of a linear count of values <= payment over N.
// Histories carry duplicates (randHistory forces them) and the seeds
// include the payments where a search off by one would show: the
// largest float, a sub-normal, and nothing at all, and NaN, which no
// worker accepts.
func FuzzAcceptProbMatchesCount(f *testing.F) {
	f.Add(int64(1), uint8(5), 0.5)
	f.Add(int64(42), uint8(0), 1.0)
	f.Add(int64(7), uint8(32), -3.0)
	f.Add(int64(-9), uint8(64), 0.0)
	f.Add(int64(3), uint8(40), math.MaxFloat64)
	f.Add(int64(11), uint8(255), math.SmallestNonzeroFloat64)
	f.Add(int64(5), uint8(9), math.Inf(1))
	f.Add(int64(8), uint8(12), math.NaN())
	f.Add(int64(13), uint8(0), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n uint8, payment float64) {
		rng := rand.New(rand.NewSource(seed))
		h := randHistory(t, rng, int(n), 100)
		check := func(p float64) {
			if got, want := h.AcceptProb(p), countProb(h.Values(), p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("AcceptProb(%v) = %v but %v by count (values %v)", p, got, want, h.Values())
			}
		}
		check(payment)
		// Probe the exact breakpoints and their neighbourhoods too: the
		// boundary payments are where a search off by one shows up.
		for _, v := range h.Values() {
			check(v)
			check(math.Nextafter(v, 0))
			check(math.Nextafter(v, math.Inf(1)))
		}
	})
}

// quoterPinnedDigest is FNV-64a over the bits of every quote
// TestQuoterPinnedBits makes, recorded at aa0cb15 from the per-history
// CDF-table path that commit's successor deleted.
const quoterPinnedDigest = 0xdbf0f144be7e2d2

// TestQuoterPinnedBits holds all three quote methods to the bits the
// deleted table path gave, over random groups whose histories are a
// third duplicates, and MaxExpectedRevenue once more on a group that is
// almost nothing but duplicates — where a breakpoint's probability must
// be taken at the last copy of its value.
func TestQuoterPinnedBits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	d := fnv.New64a()
	put := func(fs ...float64) {
		for _, f := range fs {
			d.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
		}
	}
	for trial := 0; trial < 200; trial++ {
		group := make([]*History, 1+rng.Intn(6))
		for i := range group {
			group[i] = randHistory(t, rng, rng.Intn(20), 50)
		}
		value := math.Nextafter(0, 1) + rng.Float64()*60

		rev, err := q.MaxExpectedRevenue(value, group, s)
		if err != nil {
			t.Fatalf("trial %d: MaxExpectedRevenue: %v", trial, err)
		}
		thr, err := q.ThresholdQuote(value, group, 1-rng.Float64(), s)
		if err != nil {
			t.Fatalf("trial %d: ThresholdQuote: %v", trial, err)
		}
		min, err := q.MinOuterPayment(value, group, rand.New(rand.NewSource(rng.Int63())), s)
		if err != nil {
			t.Fatalf("trial %d: MinOuterPayment: %v", trial, err)
		}
		put(rev.Payment, rev.AcceptProb, rev.ExpectedRev, thr.Payment, thr.AcceptProb, thr.ExpectedRev, min)
	}
	if got := d.Sum64(); got != quoterPinnedDigest {
		t.Errorf("digest of 200 trials = %#x, want %#x", got, uint64(quoterPinnedDigest))
	}
	if q.Stats().TableHits == 0 {
		t.Error("no payment-cache hits over 200 trials")
	}

	dup := []*History{
		mustHistory([]float64{2, 2, 2, 3, 3, 7, 7, 7, 7}),
		mustHistory([]float64{3, 3, 3, 4, 4, 8, 8}),
		mustHistory([]float64{7, 2, 7, 2, 5, 5}),
	}
	got, err := q.MaxExpectedRevenue(9, dup, s)
	if err != nil {
		t.Fatal(err)
	}
	want := Quote{Payment: math.Float64frombits(0x4008000000000000), AcceptProb: math.Float64frombits(0x3fea94fea53fa950), ExpectedRev: math.Float64frombits(0x4013efbefbefbefc)}
	if got != want {
		t.Errorf("duplicate-heavy MaxExpectedRevenue = {%#x, %#x, %#x} %+v, want %+v",
			math.Float64bits(got.Payment), math.Float64bits(got.AcceptProb), math.Float64bits(got.ExpectedRev), got, want)
	}
}

// TestQuoterMatchesLegacyEntryPoints pins that a quote depends on
// neither the quoter's nor the scratch's history: a fresh quoter with a
// fresh scratch per call (what the package-level entry points did until
// they were deleted) and one quoter reusing one scratch agree bit for bit.
func TestQuoterMatchesLegacyEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	group := []*History{
		randHistory(t, rng, 12, 40),
		randHistory(t, rng, 0, 40),
		randHistory(t, rng, 5, 40),
	}
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()

	lq, lerr := NewQuoter(DefaultMonteCarlo).MaxExpectedRevenue(30, group, NewScratch())
	nq, nerr := q.MaxExpectedRevenue(30, group, s)
	if (lerr == nil) != (nerr == nil) || lq != nq {
		t.Fatalf("MaxExpectedRevenue: legacy %+v (%v) vs quoter %+v (%v)", lq, lerr, nq, nerr)
	}

	lt, _ := NewQuoter(DefaultMonteCarlo).ThresholdQuote(30, group, 0.37, NewScratch())
	nt, _ := q.ThresholdQuote(30, group, 0.37, s)
	if lt != nt {
		t.Fatalf("ThresholdQuote: legacy %+v vs quoter %+v", lt, nt)
	}

	lm, _ := NewQuoter(DefaultMonteCarlo).MinOuterPayment(30, group, rand.New(rand.NewSource(11)), NewScratch())
	nm, _ := q.MinOuterPayment(30, group, rand.New(rand.NewSource(11)), s)
	if math.Float64bits(lm) != math.Float64bits(nm) {
		t.Fatalf("MinOuterPayment: legacy %v vs quoter %v", lm, nm)
	}
}

// TestQuoterStats checks the counters that feed metrics.PricingStats.
func TestQuoterStats(t *testing.T) {
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	group := []*History{mustHistory([]float64{5, 10, 15})}
	if _, err := q.MaxExpectedRevenue(20, group, s); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ThresholdQuote(20, group, 0.5, s); err != nil {
		t.Fatal(err)
	}
	if _, err := q.MinOuterPayment(20, group, rand.New(rand.NewSource(1)), s); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.RevenueQuotes != 1 || st.ThresholdQuotes != 1 || st.MonteCarloQuotes != 1 {
		t.Fatalf("quote counters = %+v, want one each", st)
	}
	if st.ProbEvals == 0 {
		t.Error("no probability evaluations counted")
	}
	if st.TableHits == 0 {
		t.Error("no Monte-Carlo payment-cache hits counted")
	}
	if st.TableHits > st.ProbEvals {
		t.Errorf("TableHits %d exceed ProbEvals %d", st.TableHits, st.ProbEvals)
	}
	if st.ScratchReuses == 0 || st.ScratchAllocs != 0 {
		t.Errorf("scratch counters = reuses %d allocs %d; caller-owned scratch should only reuse",
			st.ScratchReuses, st.ScratchAllocs)
	}
}

// TestQuoterScratchNoAlloc is the point of the redesign: with a
// caller-owned Scratch, warmed-up quoting allocates nothing. There is
// one MinOuterPayment path (no fan-out), so what AllocsPerRun measures
// here at GOMAXPROCS 1 is what every run executes.
func TestQuoterScratchNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := NewQuoter(DefaultMonteCarlo)
	s := NewScratch()
	group := make([]*History, 24)
	for i := range group {
		group[i] = randHistory(t, rng, 1+rng.Intn(30), 50)
	}
	mcRng := rand.New(rand.NewSource(5))
	minPay := func() {
		if _, err := q.MinOuterPayment(35, group, mcRng, s); err != nil {
			t.Fatal(err)
		}
	}
	minPay()
	if allocs := testing.AllocsPerRun(20, minPay); allocs != 0 {
		t.Errorf("warmed MinOuterPayment allocates %v objects per quote, want 0", allocs)
	}
	threshold := func() {
		if _, err := q.ThresholdQuote(35, group, 0.4, s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, threshold); allocs != 0 {
		t.Errorf("ThresholdQuote allocates %v objects per quote, want 0", allocs)
	}
	// MaxExpectedRevenue sorts its breakpoints with slices.SortFunc, which
	// allocates nothing once the scratch buffers have grown.
	if err := func() error { _, err := q.MaxExpectedRevenue(35, group, s); return err }(); err != nil {
		t.Fatal(err)
	}
	rev := func() {
		if _, err := q.MaxExpectedRevenue(35, group, s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, rev); allocs != 0 {
		t.Errorf("warmed MaxExpectedRevenue allocates %v objects per quote, want 0", allocs)
	}
}
