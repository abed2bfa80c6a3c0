package online

import (
	"crossmatch/internal/core"
	"crossmatch/internal/index"
	"crossmatch/internal/pricing"
)

// RangeFilter refines the range constraint beyond the Euclidean circle:
// given a worker whose circle covers the request (per the spatial
// index), it reports whether the worker can actually serve it. The road
// network model (internal/roadnet.Coverage) is the canonical
// implementation; nil means pure Euclidean ranges, the paper's default.
type RangeFilter func(w *core.Worker, r *core.Request) bool

// Pool is a platform's waiting list of unoccupied workers (Definition
// 2.2's "waiting list"), indexed spatially for the hot coverage query.
// It enforces the time constraint in every coverage query. A pool is not
// safe for concurrent use: it belongs to the goroutine driving its
// engine, which also runs every hub scan and claim against it.
//
// A waiting worker is one slot: its payload, its arrival and its
// acceptance history sit in parallel arrays over an index.SlotGrid,
// which hands coverage hits back as slots, so the eligibility scan reads
// flat arrays end to end — no per-candidate map lookup, no Entry copying.
type Pool struct {
	// grid stores each worker's coverage disk tagged with its slot;
	// ws/arrivals/hists are the parallel slot arrays (ws[slot] == nil
	// marks a free slot, recycled via free).
	grid     *index.SlotGrid
	ws       []*core.Worker
	arrivals []core.Time
	hists    []pricing.History
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

// Add registers a worker as waiting and builds its acceptance history
// once (pricing.MakeHistory, whose error it returns, leaving the pool as
// it was). Re-adding an ID replaces the entry (a worker returning after
// a completed service arrives as a fresh waiting-list entry).
func (p *Pool) Add(w *core.Worker) error {
	hist, err := pricing.MakeHistory(w.History)
	if err != nil {
		return err
	}
	p.Remove(w.ID)
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.ws[slot] = w
		p.arrivals[slot] = w.Arrival
		p.hists[slot] = hist
	} else {
		slot = int32(len(p.ws))
		p.ws = append(p.ws, w)
		p.arrivals = append(p.arrivals, w.Arrival)
		p.hists = append(p.hists, hist)
	}
	p.grid.Insert(index.Entry{ID: w.ID, Circle: w.Range()}, slot)
	return nil
}

// Remove deletes a worker from the waiting list, reporting presence: the
// commit point of an inner assignment and of a cross-platform claim.
func (p *Pool) Remove(id int64) bool {
	slot, ok := p.grid.Remove(id)
	if !ok {
		return false
	}
	p.ws[slot] = nil
	p.hists[slot] = pricing.History{}
	p.free = append(p.free, slot)
	return true
}

// Has reports whether a worker is waiting in this pool.
func (p *Pool) Has(id int64) bool { return p.grid.Has(id) }

// Len returns the number of waiting workers.
func (p *Pool) Len() int { return p.grid.Len() }

// covering is the one coverage scan behind AppendCovering,
// AppendCandidates and Nearest: the slots of the waiting workers able to
// serve r under the time and range constraints of Definition 2.6, in the
// grid's visit order. The result is the pool's scratch, valid until the
// next query.
func (p *Pool) covering(r *core.Request) []int32 {
	hits := p.grid.AppendSlots(p.slots[:0], r.Loc)
	n := 0
	for _, slot := range hits {
		if p.arrivals[slot] > r.Arrival || (p.Filter != nil && !p.Filter(p.ws[slot], r)) {
			continue
		}
		hits[n] = slot
		n++
	}
	p.slots = hits
	return hits[:n]
}

// AppendCovering appends to dst the waiting workers able to serve r
// and returns the extended slice. A caller that reuses dst performs no
// per-request allocation.
func (p *Pool) AppendCovering(dst []*core.Worker, r *core.Request) []*core.Worker {
	for _, slot := range p.covering(r) {
		dst = append(dst, p.ws[slot])
	}
	return dst
}

// AppendCandidates is AppendCovering for a cooperating platform: each
// worker comes with its acceptance history, straight from its slot.
func (p *Pool) AppendCandidates(dst []Candidate, r *core.Request) []Candidate {
	for _, slot := range p.covering(r) {
		dst = append(dst, Candidate{Worker: p.ws[slot], History: &p.hists[slot]})
	}
	return dst
}

// Nearest returns the closest waiting worker able to serve r, ties by
// smallest ID; ok=false when none can. It scans the coverage hits
// directly, so the hot inner-assignment path allocates nothing.
func (p *Pool) Nearest(r *core.Request) (*core.Worker, bool) {
	var best *core.Worker
	bestD := 0.0
	for _, slot := range p.covering(r) {
		w := p.ws[slot]
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
