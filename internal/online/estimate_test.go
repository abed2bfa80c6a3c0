package online

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crossmatch/internal/pricing"
)

// histPool is the set of histories the estimatePayment tests draw their
// groups from: continuous random values, empty histories, repeat
// appearances — distinct *History values sharing one ascending slice, as
// a stream's reappearing worker does — and, past the first clean
// entries, discrete values (integers 1..12), so that equal minima
// between different histories are common. A group drawn from
// pool[:clean] ties on Min only between identical values.
func histPool(tb testing.TB, rng *rand.Rand) (pool []*pricing.History, clean int) {
	tb.Helper()
	add := func(vs []float64) *pricing.History {
		h, err := pricing.NewHistory(vs)
		if err != nil {
			tb.Fatal(err)
		}
		pool = append(pool, h)
		return h
	}
	for i := 0; i < 40; i++ {
		vs := make([]float64, 1+rng.Intn(30))
		for j := range vs {
			vs[j] = 0.5 + rng.Float64()*40
		}
		add(vs)
	}
	for i := 0; i < 3; i++ {
		add(nil)
	}
	// Repeat appearances: each shared slice is ascending, so every
	// NewHistory over it shares it rather than copying.
	for i := 0; i < 10; i++ {
		vs := make([]float64, 1+rng.Intn(10))
		for j := range vs {
			vs[j] = 0.5 + rng.Float64()*40
		}
		slices.Sort(vs)
		for k := 0; k < 2+rng.Intn(3); k++ {
			add(vs)
		}
	}
	clean = len(pool)
	for i := 0; i < 40; i++ {
		vs := make([]float64, 1+rng.Intn(8))
		for j := range vs {
			vs[j] = float64(1 + rng.Intn(12))
		}
		add(vs)
	}
	return pool, clean
}

// drawGroup picks n members from pool, with replacement, so a group may
// hold one *History twice as well as two sharing a slice.
func drawGroup(rng *rand.Rand, pool []*pricing.History, n int) []*pricing.History {
	g := make([]*pricing.History, n)
	for i := range g {
		g[i] = pool[rng.Intn(len(pool))]
	}
	return g
}

// differentValueTie reports whether a group, sorted ascending by Min,
// has two histories with different values tied on Min where the order
// between them can reach the quote: both among the mcGroupCap kept, or
// one on each side of the cut.
func differentValueTie(sorted []*pricing.History) bool {
	if len(sorted) <= mcGroupCap {
		return false
	}
	last := sorted[mcGroupCap-1].Min()
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.Min() != b.Min() || a.Min() > last {
			continue
		}
		if !slices.Equal(a.Values(), b.Values()) {
			return true
		}
	}
	return false
}

// estimatePinnedDigest is FNV-64a over the bits of every estimate
// TestEstimatePaymentPinnedBits makes and the quoter counters after it,
// recorded from the full-sort selection.
const estimatePinnedDigest = 0x25de1b6fdcc2d059

// TestEstimatePaymentPinnedBits holds estimatePayment to fixed bits and
// its quoter to fixed Monte-Carlo counters over groups of 1 to 120
// members, at the default configuration and at Xi 0.01, 0.37 and 1e-5.
// Groups over the cap exercise the selection of the 24 cheapest: half
// of them tie on Min only between identical values (shared slices,
// empty histories), the other half also between different values, which
// must occur or the test pins nothing about them.
func TestEstimatePaymentPinnedBits(t *testing.T) {
	gen := rand.New(rand.NewSource(35))
	pool, clean := histPool(t, gen)
	d := fnv.New64a()
	put := func(xs ...uint64) {
		for _, x := range xs {
			d.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
	}
	ties := 0
	for _, mc := range []pricing.MonteCarlo{
		pricing.DefaultMonteCarlo,
		{Xi: 0.01, Eta: pricing.DefaultMonteCarlo.Eta},
		{Xi: 0.37, Eta: pricing.DefaultMonteCarlo.Eta},
		{Xi: 1e-5, Eta: pricing.DefaultMonteCarlo.Eta},
	} {
		q := pricing.NewQuoter(mc)
		s := pricing.NewScratch()
		rng := rand.New(rand.NewSource(gen.Int63()))
		for trial := 0; trial < 400; trial++ {
			from := pool
			if trial%2 == 0 {
				from = pool[:clean]
			}
			group := drawGroup(gen, from, 1+gen.Intn(120))
			sorted := slices.Clone(group)
			slices.SortStableFunc(sorted, byMin)
			if differentValueTie(sorted) {
				ties++
			}
			value := 0.5 + gen.Float64()*50
			est := estimatePayment(q, value, group, rng, s)
			st := q.Stats()
			put(math.Float64bits(est), uint64(st.MonteCarloQuotes), uint64(st.ProbEvals), uint64(st.TableHits))
		}
	}
	if ties == 0 {
		t.Error("no group had a Min tie between different values within reach of the quote")
	}
	if got := d.Sum64(); got != estimatePinnedDigest {
		t.Errorf("digest of 1600 estimates = %#x, want %#x (%d groups with different-value ties)", got, uint64(estimatePinnedDigest), ties)
	}
}

func byMin(a, b *pricing.History) int { return cmp.Compare(a.Min(), b.Min()) }

// denseGroup is a 60-candidate group as a dense stream hands the quote:
// 30 workers, each seen on two appearances that share one history slice.
func denseGroup(tb testing.TB) []*pricing.History {
	tb.Helper()
	rng := rand.New(rand.NewSource(60))
	var g []*pricing.History
	for i := 0; i < 30; i++ {
		vs := make([]float64, 5+rng.Intn(20))
		for j := range vs {
			vs[j] = 1 + rng.Float64()*40
		}
		slices.Sort(vs)
		for k := 0; k < 2; k++ {
			h, err := pricing.NewHistory(vs)
			if err != nil {
				tb.Fatal(err)
			}
			g = append(g, h)
		}
	}
	return g
}

// TestEstimatePaymentNoAlloc: a warmed quote over a 60-candidate group,
// selection included, allocates nothing.
func TestEstimatePaymentNoAlloc(t *testing.T) {
	group := denseGroup(t)
	buf := make([]*pricing.History, len(group))
	q := pricing.NewQuoter(pricing.DefaultMonteCarlo)
	s := pricing.NewScratch()
	rng := rand.New(rand.NewSource(1))
	quote := func() {
		copy(buf, group)
		estimatePayment(q, 30, buf, rng, s)
	}
	quote()
	if allocs := testing.AllocsPerRun(20, quote); allocs != 0 {
		t.Errorf("warmed estimatePayment over %d candidates allocates %v objects per quote, want 0", len(group), allocs)
	}
}

// TestSelectCheapestTieRule walks the tie rule case by case on groups of
// 30 whose 24th-cheapest Min is 24: a tie there with a cut member is
// harmless when the values are identical and sends the group to the
// full sort when they differ, and so does a different-value tie among
// the kept or a second cut member at the cut Min.
func TestSelectCheapestTieRule(t *testing.T) {
	h := func(vs ...float64) *pricing.History {
		hist, err := pricing.NewHistory(vs)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	// base holds Mins 1..30 in a shuffled order.
	base := func() []*pricing.History {
		g := make([]*pricing.History, 30)
		for i, m := range rand.New(rand.NewSource(24)).Perm(30) {
			g[i] = h(float64(m+1), 100)
		}
		return g
	}
	at := func(g []*pricing.History, m float64) *pricing.History {
		for _, x := range g {
			if x.Min() == m {
				return x
			}
		}
		t.Fatalf("no member with Min %v", m)
		return nil
	}
	shared := func(g []*pricing.History, m float64) *pricing.History {
		hist, err := pricing.NewHistory(at(g, m).Values())
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	for _, tc := range []struct {
		name string
		edit func(g []*pricing.History) []*pricing.History
		want bool
	}{
		{"no ties", func(g []*pricing.History) []*pricing.History { return g }, true},
		{"cut tie, shared slice", func(g []*pricing.History) []*pricing.History {
			return append(g, shared(g, 24))
		}, true},
		{"cut tie, equal values in another slice", func(g []*pricing.History) []*pricing.History {
			return append(g, h(24, 100))
		}, true},
		{"cut tie, different values", func(g []*pricing.History) []*pricing.History {
			return append(g, h(24, 50))
		}, false},
		{"cut tie, different values first", func(g []*pricing.History) []*pricing.History {
			return append([]*pricing.History{h(24, 50)}, g...)
		}, false},
		{"two cut members, the second different", func(g []*pricing.History) []*pricing.History {
			return append(g, at(g, 24), h(24, 60), h(24, 60))
		}, false},
		{"kept tie, different values", func(g []*pricing.History) []*pricing.History {
			return append(g, h(3, 50))
		}, false},
		{"kept tie, same values", func(g []*pricing.History) []*pricing.History {
			return append(g, at(g, 3), shared(g, 7))
		}, true},
		{"tie wholly past the cut", func(g []*pricing.History) []*pricing.History {
			return append(g, h(27, 50), h(25, 60))
		}, true},
		{"empty histories", func(g []*pricing.History) []*pricing.History {
			return append(g, h(), h(), h())
		}, true},
	} {
		g := tc.edit(base())
		orig := slices.Clone(g)
		ok := selectCheapest(g)
		if ok != tc.want {
			t.Errorf("%s: selectCheapest = %v, want %v", tc.name, ok, tc.want)
			continue
		}
		if !ok {
			if !slices.Equal(g, orig) {
				t.Errorf("%s: declined but reordered the group", tc.name)
			}
			continue
		}
		want := slices.Clone(orig)
		slices.SortStableFunc(want, byMin)
		for i := 0; i < mcGroupCap; i++ {
			if !sameValues(g[i], want[i]) {
				t.Errorf("%s: group[%d] = %v, want %v", tc.name, i, g[i].Values(), want[i].Values())
			}
		}
	}
}

// FuzzCheapestSelection holds the bounded selection to the full sort by
// Min it replaced: over random groups with forced shared slices, forced
// Min ties between different values and empty histories,
// selectCheapest declines exactly when a different-value tie can reach
// the quote (and then leaves the group as it was), and estimatePayment
// leaves in group[:24] the value sequence the full sort does and quotes
// the same bits as MinOuterPayment over the sorted group's first 24 (a
// group within the cap is quoted unsorted).
func FuzzCheapestSelection(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0), uint8(0))
	f.Add(int64(2), uint8(100), uint8(128), uint8(0))
	f.Add(int64(3), uint8(90), uint8(0), uint8(64))
	f.Add(int64(4), uint8(200), uint8(100), uint8(30))
	f.Add(int64(5), uint8(25), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n, share, tie uint8) {
		rng := rand.New(rand.NewSource(seed))
		orig := make([]*pricing.History, 1+int(n)%160)
		for i := range orig {
			var vs []float64
			switch r := rng.Intn(256); {
			case i > 0 && r < int(share)/2:
				// The same worker's history twice.
				orig[i] = orig[rng.Intn(i)]
				continue
			case i > 0 && r < int(share):
				// Another appearance sharing the slice.
				vs = orig[rng.Intn(i)].Values()
			case i > 0 && r < int(share)+int(tie):
				// Same Min as an earlier member, other values.
				m := orig[rng.Intn(i)].Min()
				if m == 0 {
					m = 1
				}
				vs = []float64{m, m + 1 + rng.Float64()*10}
			case rng.Intn(20) == 0:
				// Empty history.
			default:
				vs = make([]float64, 1+rng.Intn(12))
				for j := range vs {
					vs[j] = 0.5 + rng.Float64()*40
				}
				slices.Sort(vs)
			}
			h, err := pricing.NewHistory(vs)
			if err != nil {
				t.Fatal(err)
			}
			orig[i] = h
		}

		// A group within the cap reaches the quote as it is.
		want := slices.Clone(orig)
		if len(orig) > mcGroupCap {
			slices.SortFunc(want, byMin)
			stable := slices.Clone(orig)
			slices.SortStableFunc(stable, byMin)
			sel := slices.Clone(orig)
			ok := selectCheapest(sel)
			if tie := differentValueTie(stable); ok == tie {
				t.Fatalf("selectCheapest = %v with a different-value tie in reach %v", ok, tie)
			}
			if !ok && !slices.Equal(sel, orig) {
				t.Fatal("selectCheapest declined but reordered the group")
			}
		}

		value := 0.5 + rng.Float64()*50
		mcSeed := rng.Int63()
		got := slices.Clone(orig)
		est := estimatePayment(pricing.NewQuoter(pricing.DefaultMonteCarlo), value, got, rand.New(rand.NewSource(mcSeed)), pricing.NewScratch())
		k := min(len(orig), mcGroupCap)
		for i := 0; i < k; i++ {
			if !sameValues(got[i], want[i]) {
				t.Fatalf("group[%d] = %v after estimatePayment, full sort %v", i, got[i].Values(), want[i].Values())
			}
		}
		ref, err := pricing.NewQuoter(pricing.DefaultMonteCarlo).MinOuterPayment(value, want[:k], rand.New(rand.NewSource(mcSeed)), pricing.NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(ref) {
			t.Fatalf("estimatePayment = %v, MinOuterPayment over the sorted group %v", est, ref)
		}
	})
}

// BenchmarkEstimatePayment quotes a dense 60-candidate group with repeat
// appearances: selection of the 24 cheapest plus Algorithm 2.
func BenchmarkEstimatePayment(b *testing.B) {
	group := denseGroup(b)
	buf := make([]*pricing.History, len(group))
	q := pricing.NewQuoter(pricing.DefaultMonteCarlo)
	s := pricing.NewScratch()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, group)
		estimatePayment(q, 30, buf, rng, s)
	}
}
