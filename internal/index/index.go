// Package index provides spatial indexes for the hot query of cross
// online matching: "which waiting workers' service ranges cover this
// request location?" (the range constraint of Definition 2.6).
//
// Three implementations:
//
//   - SlotGrid: a structure-of-arrays uniform hash grid carrying a
//     caller-assigned slot per entry. The live index: online.Pool runs
//     every simulation's eligibility scan on it.
//   - Grid: the same grid over Entry structs, behind the Index
//     interface. Kept as SlotGrid's order oracle (a covering query must
//     visit entries in exactly Grid's order) and for the offline graph
//     builder and workload diagnostics.
//   - Linear: a brute-force scan behind the Index interface, the
//     correctness oracle in tests.
//
// Indexes are not safe for unsynchronized mixed use, but covering
// queries and Len are strictly read-only on every implementation (the
// grids keep their search radius exact instead of recomputing it
// lazily), so any number of concurrent readers is safe while no writer
// runs. online.Pool builds on that with an RWMutex to serve the
// concurrent multi-platform runtime; single-threaded callers need no
// locking at all.
package index

import (
	"sort"

	"crossmatch/internal/geo"
)

// Entry is an indexed service range: a worker ID and its coverage disk.
type Entry struct {
	ID     int64
	Circle geo.Circle
}

// Covers reports whether the entry's disk contains p.
func (e Entry) Covers(p geo.Point) bool { return e.Circle.Contains(p) }

// Index answers coverage queries over a dynamic set of entries.
type Index interface {
	// Insert adds an entry. Inserting an ID that is already present
	// replaces the previous entry.
	Insert(Entry)
	// Remove deletes the entry with the given ID, reporting whether it
	// was present.
	Remove(id int64) bool
	// Covering appends to dst all entries whose disk contains p and
	// returns the extended slice. Order is unspecified.
	Covering(dst []Entry, p geo.Point) []Entry
	// Len returns the number of live entries.
	Len() int
}

// Linear is the brute-force reference implementation.
type Linear struct {
	entries map[int64]Entry
}

// NewLinear returns an empty linear-scan index.
func NewLinear() *Linear {
	return &Linear{entries: make(map[int64]Entry)}
}

// Insert implements Index.
func (l *Linear) Insert(e Entry) { l.entries[e.ID] = e }

// Remove implements Index.
func (l *Linear) Remove(id int64) bool {
	if _, ok := l.entries[id]; !ok {
		return false
	}
	delete(l.entries, id)
	return true
}

// Covering implements Index.
func (l *Linear) Covering(dst []Entry, p geo.Point) []Entry {
	for _, e := range l.entries {
		if e.Covers(p) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Len implements Index.
func (l *Linear) Len() int { return len(l.entries) }

// SortEntries orders entries by distance from p (ascending), breaking
// ties by ID for determinism. Matchers use it to implement the paper's
// "assign the nearest worker" rule (Algorithm 1, line 5).
func SortEntries(entries []Entry, p geo.Point) {
	sort.Slice(entries, func(i, j int) bool {
		di, dj := entries[i].Circle.Center.Dist2(p), entries[j].Circle.Center.Dist2(p)
		if di != dj {
			return di < dj
		}
		return entries[i].ID < entries[j].ID
	})
}

// Nearest returns the entry covering p whose center is closest to p,
// with ok=false when none covers it. Ties break by smallest ID.
func Nearest(ix Index, p geo.Point) (Entry, bool) {
	candidates := ix.Covering(nil, p)
	if len(candidates) == 0 {
		return Entry{}, false
	}
	best := candidates[0]
	bestD := best.Circle.Center.Dist2(p)
	for _, e := range candidates[1:] {
		d := e.Circle.Center.Dist2(p)
		if d < bestD || (d == bestD && e.ID < best.ID) {
			best, bestD = e, d
		}
	}
	return best, true
}
