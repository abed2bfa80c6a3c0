package online

import (
	"crossmatch/internal/core"
	"crossmatch/internal/index"
)

// RangeFilter refines the range constraint beyond the Euclidean circle:
// given a worker whose circle covers the request (per the spatial
// index), it reports whether the worker can actually serve it. The road
// network model (internal/roadnet.Coverage) is the canonical
// implementation; nil means pure Euclidean ranges, the paper's default.
type RangeFilter func(w *core.Worker, r *core.Request) bool

// Pool is a platform's waiting list of unoccupied workers (Definition
// 2.2's "waiting list"), indexed spatially for the hot coverage query.
// It enforces the time constraint in Covering. A pool is not safe for
// concurrent use: it belongs to the goroutine driving its engine, which
// also runs every hub scan and claim against it.
//
// Workers are kept in a structure-of-arrays layout over an
// index.SlotGrid: the grid hands coverage hits back as slots into the
// pool's parallel worker/arrival arrays, so the eligibility scan reads
// flat arrays end to end — no per-candidate map lookup, no Entry copying.
type Pool struct {
	// grid stores each worker's coverage disk tagged with its slot;
	// ws/arrivals are the parallel slot arrays (ws[slot] == nil marks a
	// free slot, recycled via free).
	grid     *index.SlotGrid
	ws       []*core.Worker
	arrivals []core.Time
	free     []int32
	// slots is the coverage queries' scratch.
	slots []int32

	// Filter optionally refines coverage (e.g. road distance); it must
	// only ever prune workers whose Euclidean circle covers the request.
	// Set it before the simulation starts.
	Filter RangeFilter
}

// NewPool returns an empty pool on the default cell size. The argument
// is ignored: it once selected the index and is kept only so that
// bench/, which passes nil and is frozen to this PR, still compiles.
func NewPool(_ *index.SlotGrid) *Pool {
	return &Pool{grid: index.NewSlotGrid(index.DefaultCell)}
}

// Add registers a worker as waiting. Re-adding an ID replaces the entry
// (a worker returning after a completed service arrives as a fresh
// waiting-list entry).
func (p *Pool) Add(w *core.Worker) {
	if slot, ok := p.grid.Remove(w.ID); ok {
		p.ws[slot] = nil
		p.free = append(p.free, slot)
	}
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.ws[slot] = w
		p.arrivals[slot] = w.Arrival
	} else {
		slot = int32(len(p.ws))
		p.ws = append(p.ws, w)
		p.arrivals = append(p.arrivals, w.Arrival)
	}
	p.grid.Insert(index.Entry{ID: w.ID, Circle: w.Range()}, slot)
}

// Remove deletes a worker from the waiting list, reporting presence: the
// commit point of an inner assignment and of a cross-platform claim.
func (p *Pool) Remove(id int64) bool {
	slot, ok := p.grid.Remove(id)
	if !ok {
		return false
	}
	p.ws[slot] = nil
	p.free = append(p.free, slot)
	return true
}

// Len returns the number of waiting workers.
func (p *Pool) Len() int { return p.grid.Len() }

// AppendCovering appends to dst the waiting workers able to serve r
// under the time and range constraints of Definition 2.6 and returns the
// extended slice. A caller that reuses dst performs no per-request
// allocation.
func (p *Pool) AppendCovering(dst []*core.Worker, r *core.Request) []*core.Worker {
	p.slots = p.grid.AppendSlots(p.slots[:0], r.Loc)
	for _, slot := range p.slots {
		if p.arrivals[slot] > r.Arrival {
			continue
		}
		w := p.ws[slot]
		if p.Filter != nil && !p.Filter(w, r) {
			continue
		}
		dst = append(dst, w)
	}
	return dst
}

// Nearest returns the closest waiting worker able to serve r, ties by
// smallest ID; ok=false when none can. It scans the coverage hits
// directly, so the hot inner-assignment path allocates nothing.
func (p *Pool) Nearest(r *core.Request) (*core.Worker, bool) {
	var best *core.Worker
	bestD := 0.0
	p.slots = p.grid.AppendSlots(p.slots[:0], r.Loc)
	for _, slot := range p.slots {
		if p.arrivals[slot] > r.Arrival {
			continue
		}
		w := p.ws[slot]
		if p.Filter != nil && !p.Filter(w, r) {
			continue
		}
		d := w.Loc.Dist2(r.Loc)
		if best == nil || d < bestD || (d == bestD && w.ID < best.ID) {
			best, bestD = w, d
		}
	}
	return best, best != nil
}

// Each calls fn for every waiting worker until fn returns false.
// Iteration order is unspecified. fn must not mutate the pool.
func (p *Pool) Each(fn func(*core.Worker) bool) {
	for _, w := range p.ws {
		if w != nil && !fn(w) {
			return
		}
	}
}
