package index

import (
	"math"
	"sort"

	"crossmatch/internal/geo"
)

// Grid is SlotGrid's order oracle: the same uniform hash grid over Entry
// structs and a Go map, scanning the whole ring unclamped. It was the
// live index until the pool moved to SlotGrid, and for the same
// insert/remove sequence a SlotGrid covering query must visit entries in
// exactly the order Grid.Covering returns them.
type Grid struct {
	cell  float64 // cell edge length, km
	cells map[cellKey][]Entry
	where map[int64]cellKey // entry ID -> its cell
	// Sorted multiset of live radii: radVals ascending and distinct,
	// radCnt the multiplicity of each. The search ring uses the last
	// element; insert/remove cost O(log d + d) for d distinct radii,
	// which real workloads keep tiny (radius is per-platform uniform).
	radVals []float64
	radCnt  []int
	n       int
}

type cellKey struct{ cx, cy int32 }

// NewGrid returns an empty grid with the given cell edge length in
// kilometres. Non-positive sizes fall back to DefaultCell.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		cellSize = DefaultCell
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[cellKey][]Entry),
		where: make(map[int64]cellKey),
	}
}

func (g *Grid) key(p geo.Point) cellKey {
	cx, cy := CellOf(p, g.cell)
	return cellKey{cx: cx, cy: cy}
}

// Insert implements Index.
func (g *Grid) Insert(e Entry) {
	if _, dup := g.where[e.ID]; dup {
		g.Remove(e.ID)
	}
	k := g.key(e.Circle.Center)
	g.cells[k] = append(g.cells[k], e)
	g.where[e.ID] = k
	g.addRad(e.Circle.Radius)
	g.n++
}

// addRad records a live entry's radius in the sorted multiset.
func (g *Grid) addRad(r float64) {
	i := sort.SearchFloat64s(g.radVals, r)
	if i < len(g.radVals) && g.radVals[i] == r {
		g.radCnt[i]++
		return
	}
	g.radVals = append(g.radVals, 0)
	copy(g.radVals[i+1:], g.radVals[i:])
	g.radVals[i] = r
	g.radCnt = append(g.radCnt, 0)
	copy(g.radCnt[i+1:], g.radCnt[i:])
	g.radCnt[i] = 1
}

// removeRad drops one occurrence of a live entry's radius.
func (g *Grid) removeRad(r float64) {
	i := sort.SearchFloat64s(g.radVals, r)
	if i >= len(g.radVals) || g.radVals[i] != r {
		return // unreachable: every live entry's radius is tracked
	}
	g.radCnt[i]--
	if g.radCnt[i] == 0 {
		g.radVals = append(g.radVals[:i], g.radVals[i+1:]...)
		g.radCnt = append(g.radCnt[:i], g.radCnt[i+1:]...)
	}
}

// Remove implements Index.
func (g *Grid) Remove(id int64) bool {
	k, ok := g.where[id]
	if !ok {
		return false
	}
	bucket := g.cells[k]
	for i, e := range bucket {
		if e.ID == id {
			g.removeRad(e.Circle.Radius)
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = bucket
	}
	delete(g.where, id)
	g.n--
	return true
}

// searchRadius returns the radius within which entry centers must be
// inspected: the exact maximum over live entries, maintained
// incrementally so queries never mutate the grid.
func (g *Grid) searchRadius() float64 {
	if len(g.radVals) == 0 {
		return 0
	}
	return g.radVals[len(g.radVals)-1]
}

// Covering implements Index.
func (g *Grid) Covering(dst []Entry, p geo.Point) []Entry {
	if g.n == 0 {
		return dst
	}
	r := g.searchRadius()
	ring := int32(math.Ceil(r / g.cell))
	c := g.key(p)
	for cx := c.cx - ring; cx <= c.cx+ring; cx++ {
		for cy := c.cy - ring; cy <= c.cy+ring; cy++ {
			for _, e := range g.cells[cellKey{cx, cy}] {
				if e.Covers(p) {
					dst = append(dst, e)
				}
			}
		}
	}
	return dst
}

// Len implements Index.
func (g *Grid) Len() int { return g.n }

// Covers reports whether the entry's disk contains p.
func (e Entry) Covers(p geo.Point) bool { return e.Circle.Contains(p) }

// Index is what the two oracles share, so one table test drives both.
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
// ties by ID for determinism.
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
