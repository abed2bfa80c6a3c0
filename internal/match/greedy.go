package match

import "sort"

// GreedyAugment processes requests in decreasing order of their best
// incident edge weight and, for each, searches an augmenting path over
// the already-committed requests. When every edge incident to a request
// carries the same weight (edge weights are request-vertex weights, as in
// COM's inner-only graphs where every feasible edge books the full
// request value), this is the classic matroid greedy on the transversal
// matroid and is exact: each augmentation shuffles requests among
// equal-weight alternatives without changing committed weight. With
// genuinely per-edge weights, augmentation may displace a request onto a
// lighter edge, so no approximation factor is claimed. In COM's offline
// graphs weights are
// per-request up to the inner/outer payment split, which keeps this
// within a few percent of the optimum in practice (EXPERIMENTS.md).
// O(R * E) worst case, near-linear on radius-sparse graphs: the scalable
// OFF estimator for the largest sweeps.
func GreedyAugment(g *Graph) *Result {
	edges := g.dedupeBest()
	nw, nr := g.NWorkers, g.NRequests
	res := newResult(nw, nr)
	if nw == 0 || nr == 0 || len(edges) == 0 {
		return res
	}

	// Per-request adjacency over deduped edges.
	adj := make([][]int32, nr)
	bestW := make([]float64, nr)
	for i, e := range edges {
		adj[e.Request] = append(adj[e.Request], int32(i))
		if e.Weight > bestW[e.Request] {
			bestW[e.Request] = e.Weight
		}
	}
	order := make([]int, 0, nr)
	for r := 0; r < nr; r++ {
		if len(adj[r]) > 0 {
			order = append(order, r)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if bestW[order[i]] != bestW[order[j]] {
			return bestW[order[i]] > bestW[order[j]]
		}
		return order[i] < order[j]
	})

	// Pre-sort every request's candidate edges by weight descending once;
	// tryAugment runs inside deep augmentation cascades and must not sort.
	for r := range adj {
		cand := adj[r]
		sort.Slice(cand, func(i, j int) bool {
			wi, wj := edges[cand[i]].Weight, edges[cand[j]].Weight
			if wi != wj {
				return wi > wj
			}
			return cand[i] < cand[j]
		})
	}

	visitedW := make([]int32, nw)
	for i := range visitedW {
		visitedW[i] = -1
	}
	var epoch int32

	// tryAugment searches an alternating path giving request r a worker,
	// preferring heavier direct edges first.
	var tryAugment func(r int) bool
	tryAugment = func(r int) bool {
		for _, ei := range adj[r] {
			w := edges[ei].Worker
			if visitedW[w] == epoch {
				continue
			}
			visitedW[w] = epoch
			if res.RequestOf[w] == -1 || tryAugment(res.RequestOf[w]) {
				res.RequestOf[w] = r
				res.WorkerOf[r] = w
				return true
			}
		}
		return false
	}

	for _, r := range order {
		epoch++
		tryAugment(r)
	}

	// Recompute weight from final pairing (augmentation may have moved
	// earlier requests onto different edges).
	weightOf := make(map[int64]float64, len(edges))
	for _, e := range edges {
		weightOf[int64(e.Worker)<<32|int64(uint32(e.Request))] = e.Weight
	}
	for r := 0; r < nr; r++ {
		if w := res.WorkerOf[r]; w != -1 {
			res.Weight += weightOf[int64(w)<<32|int64(uint32(r))]
			res.Size++
		}
	}
	return res
}
