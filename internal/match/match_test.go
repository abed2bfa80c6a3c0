package match

import (
	"math"
	"math/rand"
	"testing"
)

func solvers() map[string]func(*Graph) *Result {
	return map[string]func(*Graph) *Result{
		"hungarian": Hungarian,
		"mcmf":      MaxWeightFlow,
	}
}

// Hungarian computes an exact maximum-weight bipartite matching using the
// Kuhn-Munkres algorithm with potentials (the O(n^3) Jonker-Volgenant
// formulation). The graph is densified: missing edges get weight 0, and
// since a maximum-weight matching never benefits from a non-positive
// edge, zeros act as "unmatched". It is MaxWeightFlow's oracle on
// instances too big for BruteForce.
func Hungarian(g *Graph) *Result {
	edges := g.dedupeBest()
	nw, nr := g.NWorkers, g.NRequests
	res := newResult(nw, nr)
	if nw == 0 || nr == 0 || len(edges) == 0 {
		return res
	}

	// The classic formulation wants rows <= cols; rows are "jobs" we
	// assign one by one. Use workers as rows when fewer, else requests.
	transposed := nw > nr
	rows, cols := nw, nr
	if transposed {
		rows, cols = nr, nw
	}

	// cost[i][j] = negated weight (we minimize); 0 where no edge.
	cost := make([][]float64, rows)
	for i := range cost {
		cost[i] = make([]float64, cols)
	}
	for _, e := range edges {
		i, j := e.Worker, e.Request
		if transposed {
			i, j = e.Request, e.Worker
		}
		if -e.Weight < cost[i][j] {
			cost[i][j] = -e.Weight
		}
	}

	// JV algorithm with 1-based sentinel column 0.
	u := make([]float64, rows+1)
	v := make([]float64, cols+1)
	p := make([]int, cols+1) // p[j] = row assigned to column j (1-based), 0 = free
	way := make([]int, cols+1)

	for i := 1; i <= rows; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, cols+1)
		used := make([]bool, cols+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	// Extract assignment, dropping pairs that are not real positive-weight
	// edges (the dense zeros).
	weightOf := make(map[int64]float64, len(edges))
	for _, e := range edges {
		weightOf[int64(e.Worker)<<32|int64(uint32(e.Request))] = e.Weight
	}
	for j := 1; j <= cols; j++ {
		i := p[j]
		if i == 0 {
			continue
		}
		w, r := i-1, j-1
		if transposed {
			w, r = j-1, i-1
		}
		wgt, ok := weightOf[int64(w)<<32|int64(uint32(r))]
		if !ok || wgt <= 0 {
			continue
		}
		res.WorkerOf[r] = w
		res.RequestOf[w] = r
		res.Weight += wgt
		res.Size++
	}
	return res
}

// BruteForce enumerates all matchings and returns a maximum-weight one.
// Exponential: the reference MaxWeightFlow and Hungarian are
// cross-validated against on tiny instances.
func BruteForce(g *Graph) *Result {
	edges := g.dedupeBest()
	nw, nr := g.NWorkers, g.NRequests
	best := newResult(nw, nr)
	if nw == 0 || nr == 0 || len(edges) == 0 {
		return best
	}
	cur := newResult(nw, nr)
	var rec func(i int)
	rec = func(i int) {
		if cur.Weight > best.Weight {
			*best = Result{
				WorkerOf:  append([]int(nil), cur.WorkerOf...),
				RequestOf: append([]int(nil), cur.RequestOf...),
				Weight:    cur.Weight,
				Size:      cur.Size,
			}
		}
		if i == len(edges) {
			return
		}
		e := edges[i]
		// Option 1: skip edge i.
		rec(i + 1)
		// Option 2: take edge i if both endpoints free.
		if cur.RequestOf[e.Worker] == -1 && cur.WorkerOf[e.Request] == -1 {
			cur.RequestOf[e.Worker] = e.Request
			cur.WorkerOf[e.Request] = e.Worker
			cur.Weight += e.Weight
			cur.Size++
			rec(i + 1)
			cur.RequestOf[e.Worker] = -1
			cur.WorkerOf[e.Request] = -1
			cur.Weight -= e.Weight
			cur.Size--
		}
	}
	rec(0)
	return best
}

func TestEmptyGraphs(t *testing.T) {
	all := solvers()
	all["brute"] = BruteForce
	graphs := []*Graph{
		{NWorkers: 0, NRequests: 0},
		{NWorkers: 3, NRequests: 0},
		{NWorkers: 0, NRequests: 3},
		{NWorkers: 2, NRequests: 2}, // no edges
	}
	for name, solve := range all {
		for gi, g := range graphs {
			res := solve(g)
			if res.Size != 0 || res.Weight != 0 {
				t.Errorf("%s on empty graph %d: size=%d weight=%v", name, gi, res.Size, res.Weight)
			}
			if err := res.Validate(g); err != nil {
				t.Errorf("%s on graph %d: %v", name, gi, err)
			}
		}
	}
}

func TestSingleEdge(t *testing.T) {
	g := &Graph{NWorkers: 1, NRequests: 1, Edges: []Edge{{0, 0, 5}}}
	for name, solve := range solvers() {
		res := solve(g)
		if res.Size != 1 || res.Weight != 5 {
			t.Errorf("%s: size=%d weight=%v, want 1/5", name, res.Size, res.Weight)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNegativeAndZeroEdgesIgnored(t *testing.T) {
	g := &Graph{NWorkers: 2, NRequests: 2, Edges: []Edge{
		{0, 0, -3}, {0, 1, 0}, {1, 0, 4},
	}}
	for name, solve := range solvers() {
		res := solve(g)
		if res.Size != 1 || res.Weight != 4 {
			t.Errorf("%s: size=%d weight=%v, want 1/4", name, res.Size, res.Weight)
		}
	}
}

func TestParallelEdgesKeepHeaviest(t *testing.T) {
	g := &Graph{NWorkers: 1, NRequests: 1, Edges: []Edge{
		{0, 0, 2}, {0, 0, 7}, {0, 0, 5},
	}}
	for name, solve := range solvers() {
		res := solve(g)
		if res.Weight != 7 {
			t.Errorf("%s: weight=%v, want 7", name, res.Weight)
		}
	}
}

// TestWeightVsCardinalityTradeoff: taking fewer, heavier edges must beat
// more, lighter ones.
func TestWeightVsCardinalityTradeoff(t *testing.T) {
	// w0 can serve r0 (10) or r1 (1); w1 can serve only r0 (1).
	// Max cardinality: w0-r1, w1-r0 (size 2, weight 2).
	// Max weight: w0-r0 alone... but w0-r0 + nothing = 10 vs w0-r1+w1-r0 = 2.
	g := &Graph{NWorkers: 2, NRequests: 2, Edges: []Edge{
		{0, 0, 10}, {0, 1, 1}, {1, 0, 1},
	}}
	for name, solve := range solvers() {
		res := solve(g)
		// Optimal weight is 11: w0-r1 (1) + w1-r0 (1) = 2; w0-r0 (10) +
		// w1 unmatched = 10; actually w0-r0 and w1 has only r0 which is
		// taken, so best is 10... wait: w0-r0=10, w1-r0 impossible. And
		// w0-r1=1 + w1-r0=1 = 2. So max = 10.
		if math.Abs(res.Weight-10) > 1e-9 {
			t.Errorf("%s: weight=%v, want 10", name, res.Weight)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAugmentingChainNeeded(t *testing.T) {
	// Classic chain: greedy by weight takes w0-r0 (5), then r1 only has
	// w0 -> must augment w0 to r1? No: w0 covers r0, r1; w1 covers r0.
	// Weights: w0-r0 5, w0-r1 4, w1-r0 3. Optimal: w0-r1 + w1-r0 = 7.
	g := &Graph{NWorkers: 2, NRequests: 2, Edges: []Edge{
		{0, 0, 5}, {0, 1, 4}, {1, 0, 3},
	}}
	want := 7.0
	for name, solve := range solvers() {
		res := solve(g)
		if math.Abs(res.Weight-want) > 1e-9 {
			t.Errorf("%s: weight=%v, want %v", name, res.Weight, want)
		}
	}
	brute := BruteForce(g)
	if math.Abs(brute.Weight-want) > 1e-9 {
		t.Errorf("brute: weight=%v, want %v", brute.Weight, want)
	}
}

// randomGraph draws integer weights 1-20; FuzzMaxWeightFlow covers
// fractional, wide-ranging and non-positive ones.
func randomGraph(rng *rand.Rand, maxW, maxR, maxEdges int) *Graph {
	nw := 1 + rng.Intn(maxW)
	nr := 1 + rng.Intn(maxR)
	ne := rng.Intn(maxEdges + 1)
	g := &Graph{NWorkers: nw, NRequests: nr}
	for i := 0; i < ne; i++ {
		g.Edges = append(g.Edges, Edge{Worker: rng.Intn(nw), Request: rng.Intn(nr), Weight: 1 + math.Floor(rng.Float64()*20)})
	}
	return g
}

// TestSolversAgreeWithBruteForce cross-validates Hungarian and MCMF
// against exhaustive search on random tiny instances.
func TestSolversAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, 5, 5, 10)
		want := BruteForce(g).Weight
		for name, solve := range solvers() {
			res := solve(g)
			if err := res.Validate(g); err != nil {
				t.Fatalf("trial %d: %s invalid: %v", trial, name, err)
			}
			if math.Abs(res.Weight-want) > 1e-6 {
				t.Fatalf("trial %d: %s weight=%v, brute=%v, graph=%+v", trial, name, res.Weight, want, g)
			}
		}
	}
}

// TestHungarianEqualsMCMFMedium cross-validates the two exact solvers on
// instances too big for brute force.
func TestHungarianEqualsMCMFMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40, 40, 300)
		h := Hungarian(g)
		f := MaxWeightFlow(g)
		if err := h.Validate(g); err != nil {
			t.Fatalf("trial %d: hungarian invalid: %v", trial, err)
		}
		if err := f.Validate(g); err != nil {
			t.Fatalf("trial %d: mcmf invalid: %v", trial, err)
		}
		if math.Abs(h.Weight-f.Weight) > 1e-6 {
			t.Fatalf("trial %d: hungarian=%v mcmf=%v", trial, h.Weight, f.Weight)
		}
	}
}

// TestWeightedNeverExceedsCardinalityBound: matched pairs of any solver
// cannot exceed the maximum cardinality, which is the exact solver's
// size on the same graph with unit weights.
func TestWeightedNeverExceedsCardinalityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 10, 10, 40)
		unit := &Graph{NWorkers: g.NWorkers, NRequests: g.NRequests}
		for _, e := range g.Edges {
			unit.Edges = append(unit.Edges, Edge{e.Worker, e.Request, 1})
		}
		bound := MaxWeightFlow(unit).Size
		for name, solve := range solvers() {
			if got := solve(g).Size; got > bound {
				t.Fatalf("trial %d: %s size %d > cardinality bound %d", trial, name, got, bound)
			}
		}
	}
}

func TestGraphValidate(t *testing.T) {
	good := &Graph{NWorkers: 2, NRequests: 2, Edges: []Edge{{0, 1, 3}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	bad := []*Graph{
		{NWorkers: -1},
		{NWorkers: 1, NRequests: 1, Edges: []Edge{{1, 0, 1}}},
		{NWorkers: 1, NRequests: 1, Edges: []Edge{{0, 2, 1}}},
		{NWorkers: 1, NRequests: 1, Edges: []Edge{{0, 0, math.NaN()}}},
		{NWorkers: 1, NRequests: 1, Edges: []Edge{{0, 0, math.Inf(1)}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

func TestResultValidateDetectsCorruption(t *testing.T) {
	g := &Graph{NWorkers: 2, NRequests: 2, Edges: []Edge{{0, 0, 5}, {1, 1, 3}}}
	res := Hungarian(g)
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
	res.Weight += 1
	if err := res.Validate(g); err == nil {
		t.Error("weight corruption undetected")
	}
	res.Weight -= 1
	res.WorkerOf[0] = 1 // inconsistent pairing
	if err := res.Validate(g); err == nil {
		t.Error("pairing corruption undetected")
	}
}

func TestLargeSparseAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(2024))
	g := randomGraph(rng, 300, 500, 3000)
	h := Hungarian(g)
	f := MaxWeightFlow(g)
	if math.Abs(h.Weight-f.Weight) > 1e-6 {
		t.Fatalf("hungarian=%v mcmf=%v", h.Weight, f.Weight)
	}
}

func BenchmarkSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 200, 400, 2500)
	b.Run("hungarian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Hungarian(g)
		}
	})
	b.Run("mcmf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxWeightFlow(g)
		}
	})
}
