package match

// Builder accumulates one dispatch window's feasible arcs in
// structure-of-arrays form — parallel worker/request/weight arrays
// instead of a []Edge — so the windowed matcher's hot loop appends three
// scalars per arc and reuses all three arrays across windows. Solve
// materializes the arcs into a Graph (through a reused edge buffer) and
// runs MaxWeightFlow on it, the same exact solver OFF uses.
//
// A Builder is not safe for concurrent use; each windowed matcher owns
// one.
type Builder struct {
	workers  []int32
	requests []int32
	weights  []float64
	nw, nr   int

	// edges is the reused materialization buffer handed to the solver.
	edges []Edge
}

// Reset clears the arc set and declares the window's column/row counts.
// Worker columns are 0..nWorkers-1, request rows 0..nRequests-1.
func (b *Builder) Reset(nWorkers, nRequests int) {
	b.workers = b.workers[:0]
	b.requests = b.requests[:0]
	b.weights = b.weights[:0]
	b.nw, b.nr = nWorkers, nRequests
}

// Arc adds a feasible worker→request arc. Weights at or below zero are
// legal but can never appear in a solution (the solver drops them).
func (b *Builder) Arc(worker, request int, weight float64) {
	b.workers = append(b.workers, int32(worker))
	b.requests = append(b.requests, int32(request))
	b.weights = append(b.weights, weight)
}

// Len reports the number of arcs added since the last Reset.
func (b *Builder) Len() int { return len(b.workers) }

// Solve runs an exact max-weight matching over the accumulated arcs. A
// window's matching is a pure function of its arc set.
func (b *Builder) Solve() *Result {
	if cap(b.edges) < len(b.workers) {
		b.edges = make([]Edge, len(b.workers))
	}
	b.edges = b.edges[:len(b.workers)]
	for i := range b.workers {
		b.edges[i] = Edge{Worker: int(b.workers[i]), Request: int(b.requests[i]), Weight: b.weights[i]}
	}
	return MaxWeightFlow(&Graph{NWorkers: b.nw, NRequests: b.nr, Edges: b.edges})
}
