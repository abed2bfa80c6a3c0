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
	h := mustHistory(in)
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
	h := mustHistory([]float64{2, 4, 4, 8})
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
	h := mustHistory(nil)
	if got := h.AcceptProb(1); got != 1 {
		t.Errorf("empty history AcceptProb(1) = %v, want 1", got)
	}
	if got := h.AcceptProb(0); got != 0 {
		t.Errorf("empty history AcceptProb(0) = %v, want 0", got)
	}
	if got := h.AcceptProb(math.NaN()); got != 0 {
		t.Errorf("empty history AcceptProb(NaN) = %v, want 0", got)
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
		h := mustHistory(vals)
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
	h := mustHistory([]float64{5, 1, 9})
	if h.Min() != 1 || h.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	e := mustHistory(nil)
	if e.Min() != 0 || e.Max() != 0 {
		t.Error("empty history Min/Max should be 0")
	}
}

// TestNaNPaymentNeverAccepts: a NaN payment is not a positive one, so no
// worker and no group accepts it (a search for NaN lands past the last
// value, which once read as probability 1).
func TestNaNPaymentNeverAccepts(t *testing.T) {
	nan := math.NaN()
	group := []*History{mustHistory([]float64{1, 2, 3}), mustHistory([]float64{0.5})}
	for _, h := range group {
		if got := h.AcceptProb(nan); got != 0 {
			t.Errorf("AcceptProb(NaN) over %v = %v, want 0", h.Values(), got)
		}
	}
	if got := groupAcceptProb(nan, group); got != 0 {
		t.Errorf("groupAcceptProb(NaN) = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for i := 0; i < 1000; i++ {
		if group[0].Accepts(nan, rng) {
			accepted++
		}
	}
	if accepted != 0 {
		t.Errorf("Accepts(NaN) accepted %d times in 1000, want 0", accepted)
	}
}

func TestAcceptsSamplingFrequency(t *testing.T) {
	// With acceptance probability 0.75, the empirical acceptance rate
	// over many samples must concentrate near 0.75.
	h := mustHistory([]float64{1, 2, 3, 10})
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

// groupAcceptProb returns pr(v', W) per Definition 4.1: the probability
// that at least one worker of the group accepts payment v', assuming
// independent decisions: 1 - prod_w (1 - pr(v', w)). It is the tests'
// oracle for the quoters' own evaluations (groupProb and the scans).
func groupAcceptProb(payment float64, group []*History) float64 {
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

func TestGroupAcceptProb(t *testing.T) {
	a := mustHistory([]float64{2, 4})  // pr(3) = 0.5
	b := mustHistory([]float64{1})     // pr(3) = 1
	c := mustHistory([]float64{8, 10}) // pr(3) = 0
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
			if got := groupAcceptProb(tt.payment, tt.group); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("groupAcceptProb = %v, want %v", got, tt.want)
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
			group = append(group, mustHistory(vals))
		}
		pay := rng.Float64() * 12
		gp := groupAcceptProb(pay, group)
		for _, h := range group {
			if h.AcceptProb(pay) > gp+1e-12 {
				t.Fatalf("member prob exceeds group prob")
			}
		}
		bigger := groupAcceptProb(pay, append(group, mustHistory([]float64{0.1})))
		if bigger < gp-1e-12 {
			t.Fatalf("extending group decreased probability")
		}
	}
}

// oracleHistory is the construction MakeHistory replaced, kept as the
// reference: copy, then sort.Float64s.
func oracleHistory(values []float64) []float64 {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	return vs
}

// historyShapes are inputs of length n that take MakeHistory down each
// of its ways: in order already (shared), out of order (copied and
// sorted), one distinct value, few distinct values.
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
	"shuffled": func(n int, rng *rand.Rand) []float64 {
		vs := make([]float64, n)
		for i, j := range rng.Perm(n) {
			vs[i] = 1 + float64(j)/3
		}
		if n > 1 && vs[0] < vs[1] {
			vs[0], vs[1] = vs[1], vs[0] // never the identity
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
			vs := oracleHistory(in)
			if !slices.Equal(h.Values(), vs) {
				t.Fatalf("%s/%d: values = %v; the oracle has %v", name, n, h.Values(), vs)
			}
			if cap(h.values) != len(h.values) {
				t.Fatalf("%s/%d: spare capacity %d/%d: an append would write into the caller's array", name, n, len(h.values), cap(h.values))
			}
			wantMin, wantMax := 0.0, 0.0
			if n > 0 {
				wantMin, wantMax = vs[0], vs[n-1]
			}
			if h.Min() != wantMin || h.Max() != wantMax {
				t.Fatalf("%s/%d: Min, Max = %v, %v, want %v, %v", name, n, h.Min(), h.Max(), wantMin, wantMax)
			}
			for _, v := range append(slices.Compact(slices.Clone(vs)), 0, -1, 1e9) {
				for _, p := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
					if got, want := h.AcceptProb(p), countProb(vs, p); got != want {
						t.Fatalf("%s/%d: AcceptProb(%v) = %v, want %v", name, n, p, got, want)
					}
				}
			}
		}
	}
}

// TestMakeHistorySharesAscendingInput is the construction's contract.
// Input already in order — ascending, all equal, or at most one value —
// is the history: no allocation, same first element. Any other order
// costs exactly one allocation, the sorted copy, and the caller's slice
// is left bit for bit as it was. NewHistory with the pointer kept local
// costs the same.
func TestMakeHistorySharesAscendingInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := 0
	for _, n := range []int{0, 1, 40, 1000} {
		for _, name := range []string{"ascending", "all-equal", "descending", "shuffled"} {
			in := historyShapes[name](n, rng)
			share := name == "ascending" || name == "all-equal" || n <= 1
			if sort.Float64sAreSorted(in) != share {
				t.Fatalf("%s/%d: the shape is on the wrong branch", name, n)
			}
			before := slices.Clone(in)
			h, err := MakeHistory(in)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			if !slices.Equal(h.Values(), oracleHistory(in)) {
				t.Fatalf("%s/%d: values = %v; the oracle has %v", name, n, h.Values(), oracleHistory(in))
			}
			for i := range in {
				if math.Float64bits(in[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s/%d: the caller's slice was written at %d", name, n, i)
				}
			}
			if n > 0 {
				if aliased := &h.Values()[0] == &in[0]; aliased != share {
					t.Errorf("%s/%d: history aliases its input = %v, want %v", name, n, aliased, share)
				}
			}
			want := 1.0
			if share {
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

// BenchmarkNewHistory is the hub's cost per worker arrival at the
// generator's mean history length on each branch: ascending, as every
// built stream carries it (shared, 0 B/op), and shuffled (one copy,
// sorted). It cycles through 1024 inputs, as a run meets a new history
// at every arrival: over one input repeated the branch predictor learns
// the sort.
func BenchmarkNewHistory(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shuffled := make([][]float64, 1024)
	ascending := make([][]float64, len(shuffled))
	for i := range shuffled {
		shuffled[i] = make([]float64, 40)
		for j := range shuffled[i] {
			shuffled[i][j] = 1 + rng.Float64()
		}
		ascending[i] = slices.Clone(shuffled[i])
		sort.Float64s(ascending[i])
	}
	for _, c := range []struct {
		name string
		in   [][]float64
	}{{"ascending", ascending}, {"shuffled", shuffled}} {
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

// mustHistory is NewHistory for static test fixtures; it panics on error.
func mustHistory(values []float64) *History {
	h, err := NewHistory(values)
	if err != nil {
		panic(err)
	}
	return h
}
