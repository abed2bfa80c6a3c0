// Package match implements offline bipartite matching, the substrate of
// the paper's OFF baseline (Section II-B): the offline optimum of cross
// online matching is a maximum-weight bipartite matching over all
// feasible worker-request edges, where an inner edge weighs the request
// value v and an outer edge weighs v minus the outer payment v'.
//
// There is one solver, MaxWeightFlow: an exact successive-shortest-path
// min-cost max-flow with Johnson potentials over the sparse Graph. It
// solves the OFF graph at every size the harness runs and every BatchCOM
// window (through Builder). The tests check it against two oracles that
// live only in the test files: a dense O(n^3) Hungarian and an
// exhaustive BruteForce.
//
// The solver is a pure function of the Graph; no global state, safe to
// call concurrently on different graphs.
package match

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Edge is a feasible worker-request pair with the revenue the platform
// books if it is chosen.
type Edge struct {
	Worker  int // index into the worker side, 0-based
	Request int // index into the request side, 0-based
	Weight  float64
}

// Graph is a sparse weighted bipartite graph.
type Graph struct {
	NWorkers  int
	NRequests int
	Edges     []Edge
}

// Validate reports whether all edges reference valid vertices and carry
// finite weights.
func (g *Graph) Validate() error {
	if g.NWorkers < 0 || g.NRequests < 0 {
		return fmt.Errorf("match: negative side size (%d workers, %d requests)", g.NWorkers, g.NRequests)
	}
	for i, e := range g.Edges {
		if e.Worker < 0 || e.Worker >= g.NWorkers {
			return fmt.Errorf("match: edge %d: worker %d out of range [0,%d)", i, e.Worker, g.NWorkers)
		}
		if e.Request < 0 || e.Request >= g.NRequests {
			return fmt.Errorf("match: edge %d: request %d out of range [0,%d)", i, e.Request, g.NRequests)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("match: edge %d: non-finite weight %v", i, e.Weight)
		}
	}
	return nil
}

// Result is a matching produced by a solver.
type Result struct {
	// WorkerOf[r] is the worker matched to request r, or -1.
	WorkerOf []int
	// RequestOf[w] is the request matched to worker w, or -1.
	RequestOf []int
	// Weight is the total weight of chosen edges.
	Weight float64
	// Size is the number of matched pairs.
	Size int
}

func newResult(nw, nr int) *Result {
	res := &Result{
		WorkerOf:  make([]int, nr),
		RequestOf: make([]int, nw),
	}
	for i := range res.WorkerOf {
		res.WorkerOf[i] = -1
	}
	for i := range res.RequestOf {
		res.RequestOf[i] = -1
	}
	return res
}

// Validate checks that the result is a consistent matching over g and
// that every chosen pair corresponds to an edge; it recomputes the weight
// as the maximum weight among parallel edges for the chosen pairs and
// compares.
func (res *Result) Validate(g *Graph) error {
	if len(res.WorkerOf) != g.NRequests || len(res.RequestOf) != g.NWorkers {
		return fmt.Errorf("match: result sides (%d, %d) do not fit graph (%d, %d)",
			len(res.RequestOf), len(res.WorkerOf), g.NWorkers, g.NRequests)
	}
	best := map[[2]int]float64{}
	for _, e := range g.Edges {
		k := [2]int{e.Worker, e.Request}
		if w, ok := best[k]; !ok || e.Weight > w {
			best[k] = e.Weight
		}
	}
	size := 0
	total := 0.0
	for r, w := range res.WorkerOf {
		if w == -1 {
			continue
		}
		if w < 0 || w >= g.NWorkers {
			return fmt.Errorf("match: request %d matched to invalid worker %d", r, w)
		}
		if res.RequestOf[w] != r {
			return fmt.Errorf("match: inconsistent pairing: WorkerOf[%d]=%d but RequestOf[%d]=%d",
				r, w, w, res.RequestOf[w])
		}
		wgt, ok := best[[2]int{w, r}]
		if !ok {
			return fmt.Errorf("match: pair (%d, %d) is not an edge", w, r)
		}
		total += wgt
		size++
	}
	for w, r := range res.RequestOf {
		if r != -1 && res.WorkerOf[r] != w {
			return fmt.Errorf("match: inconsistent pairing: RequestOf[%d]=%d but WorkerOf[%d]=%d",
				w, r, r, res.WorkerOf[r])
		}
	}
	if size != res.Size {
		return fmt.Errorf("match: size %d != recomputed %d", res.Size, size)
	}
	if math.Abs(total-res.Weight) > 1e-6*(1+math.Abs(total)) {
		return fmt.Errorf("match: weight %v != recomputed %v", res.Weight, total)
	}
	return nil
}

// dedupeBest collapses parallel edges, keeping the heaviest per pair, and
// drops edges with non-positive weight (they can never improve a maximum
// weight matching since leaving the pair unmatched weighs 0).
func (g *Graph) dedupeBest() []Edge {
	best := make(map[int64]Edge, len(g.Edges))
	for _, e := range g.Edges {
		if e.Weight <= 0 {
			continue
		}
		k := int64(e.Worker)<<32 | int64(uint32(e.Request))
		if cur, ok := best[k]; !ok || e.Weight > cur.Weight {
			best[k] = e
		}
	}
	out := make([]Edge, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if c := cmp.Compare(a.Worker, b.Worker); c != 0 {
			return c
		}
		return cmp.Compare(a.Request, b.Request)
	})
	return out
}
