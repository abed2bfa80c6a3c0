package pricing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewHistoryValidation(t *testing.T) {
	if _, err := NewHistory([]float64{1, 2, 3}); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	for _, bad := range [][]float64{
		{0}, {-1}, {math.NaN()}, {math.Inf(1)}, {1, 2, -0.5},
	} {
		if _, err := NewHistory(bad); err == nil {
			t.Errorf("history %v accepted", bad)
		}
	}
}

func TestNewHistorySortsAndCopies(t *testing.T) {
	in := []float64{3, 1, 2}
	h := MustHistory(in)
	if !sort.Float64sAreSorted(h.Values()) {
		t.Error("values not sorted")
	}
	in[0] = 99 // mutating input must not affect history
	if h.Values()[2] != 3 {
		t.Error("history aliases caller slice")
	}
}

func TestAcceptProbDefinition31(t *testing.T) {
	// N = 4 history values 2, 4, 4, 8.
	h := MustHistory([]float64{2, 4, 4, 8})
	tests := []struct {
		payment float64
		want    float64
	}{
		{0, 0},    // non-positive payment never accepted
		{-1, 0},   // ditto
		{1, 0},    // below all history
		{2, 0.25}, // N(v<=2)=1
		{3, 0.25}, // still 1
		{4, 0.75}, // 3 of 4
		{7.99, 0.75},
		{8, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := h.AcceptProb(tt.payment); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("AcceptProb(%v) = %v, want %v", tt.payment, got, tt.want)
		}
	}
}

func TestAcceptProbEmptyHistoryConvention(t *testing.T) {
	h := MustHistory(nil)
	if got := h.AcceptProb(1); got != 1 {
		t.Errorf("empty history AcceptProb(1) = %v, want 1", got)
	}
	if got := h.AcceptProb(0); got != 0 {
		t.Errorf("empty history AcceptProb(0) = %v, want 0", got)
	}
	var nilH *History
	if nilH.Len() != 0 {
		t.Error("nil history Len != 0")
	}
}

// Property: AcceptProb is monotone non-decreasing in the payment and
// bounded in [0,1].
func TestAcceptProbMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var vals []float64
		for _, v := range raw {
			v = math.Abs(math.Mod(v, 50)) + 0.1
			vals = append(vals, v)
		}
		h := MustHistory(vals)
		pa := math.Abs(math.Mod(a, 60))
		pb := math.Abs(math.Mod(b, 60))
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := h.AcceptProb(pa), h.AcceptProb(pb)
		return qa >= 0 && qb <= 1 && qa <= qb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistoryMinMax(t *testing.T) {
	h := MustHistory([]float64{5, 1, 9})
	if h.Min() != 1 || h.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	e := MustHistory(nil)
	if e.Min() != 0 || e.Max() != 0 {
		t.Error("empty history Min/Max should be 0")
	}
}

func TestHistoryRecord(t *testing.T) {
	h := MustHistory([]float64{2, 6})
	if err := h.Record(4); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i, v := range h.Values() {
		if v != want[i] {
			t.Fatalf("Values = %v, want %v", h.Values(), want)
		}
	}
	if err := h.Record(-1); err == nil {
		t.Error("negative value recorded")
	}
	if err := h.Record(math.NaN()); err == nil {
		t.Error("NaN recorded")
	}
	// Record at the extremes.
	if err := h.Record(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Record(10); err != nil {
		t.Fatal(err)
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Errorf("after records Min/Max = %v/%v", h.Min(), h.Max())
	}
	if !sort.Float64sAreSorted(h.Values()) {
		t.Error("not sorted after Record")
	}
}

func TestAcceptsSamplingFrequency(t *testing.T) {
	// With acceptance probability 0.75, the empirical acceptance rate
	// over many samples must concentrate near 0.75.
	h := MustHistory([]float64{1, 2, 3, 10})
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if h.Accepts(5, rng) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("empirical acceptance = %v, want ~0.75", got)
	}
}

func TestGroupAcceptProb(t *testing.T) {
	a := MustHistory([]float64{2, 4})  // pr(3) = 0.5
	b := MustHistory([]float64{1})     // pr(3) = 1
	c := MustHistory([]float64{8, 10}) // pr(3) = 0
	tests := []struct {
		name    string
		group   []*History
		payment float64
		want    float64
	}{
		{"empty group", nil, 3, 0},
		{"single half", []*History{a}, 3, 0.5},
		{"certain member", []*History{a, b}, 3, 1},
		{"two halves", []*History{a, a}, 3, 0.75},
		{"zero member ignored", []*History{a, c}, 3, 0.5},
		{"all zero", []*History{c}, 3, 0},
		{"non-positive payment", []*History{a, b}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GroupAcceptProb(tt.payment, tt.group); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("GroupAcceptProb = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: group acceptance dominates each member's and is monotone in
// group extension.
func TestGroupAcceptProbDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var group []*History
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			var vals []float64
			for j := 0; j <= rng.Intn(6); j++ {
				vals = append(vals, 0.5+rng.Float64()*10)
			}
			group = append(group, MustHistory(vals))
		}
		pay := rng.Float64() * 12
		gp := GroupAcceptProb(pay, group)
		for _, h := range group {
			if h.AcceptProb(pay) > gp+1e-12 {
				t.Fatalf("member prob exceeds group prob")
			}
		}
		bigger := GroupAcceptProb(pay, append(group, MustHistory([]float64{0.1})))
		if bigger < gp-1e-12 {
			t.Fatalf("extending group decreased probability")
		}
	}
}

// oracleHistory is the construction MakeHistory replaced, kept as the
// reference: copy, sort.Float64s, then a counted table of exactly the
// distinct values.
func oracleHistory(values []float64) (vs, uniq, cdf []float64) {
	vs = append([]float64(nil), values...)
	sort.Float64s(vs)
	n := len(vs)
	for i := 0; i < n; i++ {
		if i+1 < n && vs[i+1] == vs[i] {
			continue
		}
		uniq = append(uniq, vs[i])
		cdf = append(cdf, float64(i+1)/float64(n))
	}
	return vs, uniq, cdf
}

// historyShapes are inputs of length n that take MakeHistory down each
// of its ways: no sort, a full sort, one distinct value, few distinct
// values.
var historyShapes = map[string]func(n int, rng *rand.Rand) []float64{
	"ascending": func(n int, _ *rand.Rand) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = 1 + float64(i)/3
		}
		return vs
	},
	"descending": func(n int, _ *rand.Rand) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n-i) / 7
		}
		return vs
	},
	"all-equal": func(n int, _ *rand.Rand) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = 2.5
		}
		return vs
	},
	"duplicate-heavy": func(n int, rng *rand.Rand) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(1 + rng.Intn(5))
		}
		return vs
	},
}

func TestMakeHistoryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, shape := range historyShapes {
		for _, n := range []int{0, 1, 64, 65, 1000} {
			in := shape(n, rng)
			h, err := NewHistory(in)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			vs, uniq, cdf := oracleHistory(in)
			if !slices.Equal(h.Values(), vs) || !slices.Equal(h.uniq, uniq) || !slices.Equal(h.cdf, cdf) {
				t.Fatalf("%s/%d: values, uniq, cdf = %v, %v, %v; the oracle has %v, %v, %v",
					name, n, h.Values(), h.uniq, h.cdf, vs, uniq, cdf)
			}
			if cap(h.values) != len(h.values) || cap(h.uniq) != len(h.uniq) || cap(h.cdf) != len(h.cdf) {
				t.Fatalf("%s/%d: spare capacity (values %d/%d, uniq %d/%d, cdf %d/%d): an append would reach the next part of the backing",
					name, n, len(h.values), cap(h.values), len(h.uniq), cap(h.uniq), len(h.cdf), cap(h.cdf))
			}
			wantMin, wantMax := 0.0, 0.0
			if n > 0 {
				wantMin, wantMax = vs[0], vs[n-1]
			}
			if h.Min() != wantMin || h.Max() != wantMax {
				t.Fatalf("%s/%d: Min, Max = %v, %v, want %v, %v", name, n, h.Min(), h.Max(), wantMin, wantMax)
			}
			for _, v := range append(uniq, 0, -1, 1e9) {
				for _, p := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
					want := 0.0 // N(v <= p) / N by the definition's own scan
					if p > 0 {
						want = 1
						if n > 0 {
							k := 0
							for _, x := range vs {
								if x <= p {
									k++
								}
							}
							want = float64(k) / float64(n)
						}
					}
					if got, tab := h.AcceptProb(p), h.AcceptProbTable(p); got != want || tab != want {
						t.Fatalf("%s/%d: AcceptProb(%v) = %v, table %v, want %v", name, n, p, got, tab, want)
					}
				}
			}
		}
	}
}

// TestNewHistoryOneAllocation: a non-empty history is one allocation,
// the backing the values and the table share, whether it is built by
// value or through NewHistory with the pointer kept local; an empty one
// is none.
func TestNewHistoryOneAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := 0
	for _, n := range []int{0, 1, 40, 1000} {
		for name, shape := range historyShapes {
			in := shape(n, rng)
			want := 1.0
			if n == 0 {
				want = 0
			}
			if got := testing.AllocsPerRun(50, func() {
				h, err := MakeHistory(in)
				if err != nil {
					t.Fatal(err)
				}
				total += h.Len()
			}); got != want {
				t.Errorf("MakeHistory(%s/%d): %v allocations, want %v", name, n, got, want)
			}
			if got := testing.AllocsPerRun(50, func() {
				h, err := NewHistory(in)
				if err != nil {
					t.Fatal(err)
				}
				total += h.Len()
			}); got != want {
				t.Errorf("NewHistory(%s/%d): %v allocations, want %v", name, n, got, want)
			}
		}
	}
	if total == 0 {
		t.Fatal("no history was built")
	}
}

// TestRecordMovesOffTheSharedBacking: Record on a freshly built history
// must grow away from the one backing allocation, not into the table
// that follows the values in it, and a second history built from the
// same input must not notice.
func TestRecordMovesOffTheSharedBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, shape := range historyShapes {
		in := shape(64, rng)
		h, other := MustHistory(in), MustHistory(in)
		before := *h // the slices as built, still over the first backing
		vs, uniq, cdf := oracleHistory(in)
		if err := h.Record(1.75); err != nil {
			t.Fatal(err)
		}
		for _, b := range []*History{&before, other} {
			if !slices.Equal(b.values, vs) || !slices.Equal(b.uniq, uniq) || !slices.Equal(b.cdf, cdf) {
				t.Fatalf("%s: Record wrote into a backing it had left: values, uniq, cdf = %v, %v, %v", name, b.values, b.uniq, b.cdf)
			}
		}
		vs, uniq, cdf = oracleHistory(append(in, 1.75))
		if !slices.Equal(h.values, vs) || !slices.Equal(h.uniq, uniq) || !slices.Equal(h.cdf, cdf) {
			t.Fatalf("%s: after Record values, uniq, cdf = %v, %v, %v; the oracle has %v, %v, %v", name, h.values, h.uniq, h.cdf, vs, uniq, cdf)
		}
	}
}

// BenchmarkNewHistory is the hub's cost per worker arrival at the
// generator's mean history length: unsorted as Generate draws it, and
// ascending, which skips the sort. It cycles through 1024 inputs, as a
// run meets a new history at every arrival: over one input repeated the
// branch predictor learns the sort.
func BenchmarkNewHistory(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	unsorted := make([][]float64, 1024)
	ascending := make([][]float64, len(unsorted))
	for i := range unsorted {
		unsorted[i] = make([]float64, 40)
		for j := range unsorted[i] {
			unsorted[i][j] = 1 + rng.Float64()
		}
		ascending[i] = slices.Clone(unsorted[i])
		sort.Float64s(ascending[i])
	}
	for _, c := range []struct {
		name string
		in   [][]float64
	}{{"unsorted", unsorted}, {"ascending", ascending}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				h, err := MakeHistory(c.in[i%len(c.in)])
				if err != nil {
					b.Fatal(err)
				}
				n += h.Len()
			}
			if n != 40*b.N {
				b.Fatal("bad length")
			}
		})
	}
}
