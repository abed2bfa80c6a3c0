package index

import (
	"math"
	"sort"

	"crossmatch/internal/geo"
)

// SlotGrid is a uniform hash grid over entry centers, built for the
// eligibility scan that dominates matcher time. An entry lives in the
// cell containing its center; a covering query at p inspects every cell
// within the maximum live radius of p. The grid tracks that maximum
// exactly in a sorted radius multiset, so correctness never depends on
// choosing the cell size well — only performance does — and a query
// never mutates the grid.
//
// Each cell keeps its entries as parallel slices of coordinates and
// squared radii, so a covering query streams through flat float64 arrays
// and the containment test is a single fused compare — no per-entry
// branch on the radius sign (negative radii are stored as an impossible
// squared radius). Each entry carries a caller-assigned slot, reported
// from queries and removals: online.Pool uses it to index its own
// parallel worker arrays, which removes the per-candidate map lookup
// from the hot path.
//
// Visit order is part of the contract, because the deterministic
// runtime's bit-reproducibility rests on it: buckets append on insert
// and swap-with-last on remove, and the ring is scanned cx-major. The
// Grid oracle in oracle_test.go (the same grid over Entry structs and a
// Go map) defines that order; TestSlotGridMatchesGridOrder and
// FuzzSlotGridMatchesGrid hold SlotGrid to it.
//
// Cells are found through a typed directory, not a Go map: an
// open-addressed table (linear probing, power-of-two size, at most a
// quarter full, so a probe for a cell never touched ends in one or two
// steps) from the packed (cx, cy) to an index into buckets. Buckets are
// never deleted, so there are no tombstones, and memory is O(cells ever
// touched) wherever they lie. Each directory entry also counts its
// cell's live entries, so a scan passes over an emptied cell without
// reading its bucket. The bounding box of those cells clamps the
// ring scan — cells outside it are empty, so the order is kept — and
// one far-reaching entry cannot make every query walk millions of cells.
// The ring's width in cells is kept as an integer beside the radius
// multiset and recomputed only when the largest live radius changes, so
// a query's preamble is integer arithmetic: one division by the cell
// size per coordinate, no float rounding or clamping.
//
// AppendSlots, Has and Len are strictly read-only, so any number of
// concurrent readers is safe while no writer runs.
type SlotGrid struct {
	cell     float64
	dir      []dirEntry // len == 1 << (64 - dirShift)
	dirShift uint8
	buckets  []slotBucket
	where    map[int64]int32 // entry ID -> index into buckets
	// Bounding box of the cells in buckets.
	minCx, maxCx, minCy, maxCy int32
	// Sorted multiset of live radii: radVals ascending and distinct,
	// radCnt the multiplicity of each. The search ring uses the last
	// element; insert/remove cost O(log d + d) for d distinct radii,
	// which real workloads keep tiny (radius is per-platform uniform).
	radVals []float64
	radCnt  []int
	// ring is the search ring's half-width in cells for the largest live
	// radius (ringOf), kept in step with radVals.
	ring int64
	n    int
}

// maxRing saturates the ring: a wider one reaches past the bounding box
// from any cell an int32 holds, so clamping it to the box gives the same
// scan a ring of any larger width (or +Inf) would.
const maxRing = 1 << 32

// ringOf is the search ring's half-width in cells for the largest live
// radius r: ceil(r / cell), saturated at ±maxRing. A negative width
// scans nothing. A NaN radius takes the conversion the Grid oracle gives
// it, int32(NaN), so the two scan alike there too.
func ringOf(r, cell float64) int64 {
	w := math.Ceil(r / cell)
	switch {
	case w != w:
		return int64(int32(w))
	case w > maxRing:
		return maxRing
	case w < -maxRing:
		return -maxRing
	}
	return int64(w)
}

// dirEntry maps a packed cell to its bucket's index plus one (zero is
// an unused entry) and counts the cell's live entries, in what would
// otherwise be padding: a scan skips an emptied cell without reading its
// bucket.
type dirEntry struct {
	key    uint64
	bucket int32
	live   int32
}

func packCell(cx, cy int32) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

// probe returns the directory entry that holds key, or the empty entry
// where the search for it ends (Fibonacci hashing, linear probing).
func (g *SlotGrid) probe(key uint64) *dirEntry {
	for i := int(key * 0x9E3779B97F4A7C15 >> g.dirShift); ; i = (i + 1) & (len(g.dir) - 1) {
		if e := &g.dir[i]; e.bucket == 0 || e.key == key {
			return e
		}
	}
}

// touch returns the cell's directory entry, adding an empty bucket for a
// cell seen for the first time. The pointer is valid until the next
// touch, which may grow the directory.
func (g *SlotGrid) touch(cx, cy int32) *dirEntry {
	key := packCell(cx, cy)
	e := g.probe(key)
	if e.bucket != 0 {
		return e
	}
	if 4*len(g.buckets) >= len(g.dir) { // the new cell would fill it past a quarter
		old := g.dir
		g.dir, g.dirShift = make([]dirEntry, 2*len(old)), g.dirShift-1
		for _, o := range old {
			if o.bucket != 0 {
				*g.probe(o.key) = o
			}
		}
		e = g.probe(key)
	}
	g.minCx, g.maxCx = min(g.minCx, cx), max(g.maxCx, cx)
	g.minCy, g.maxCy = min(g.minCy, cy), max(g.maxCy, cy)
	g.buckets = append(g.buckets, slotBucket{key: key})
	*e = dirEntry{key: key, bucket: int32(len(g.buckets))}
	return e
}

// slotBucket holds one cell's entries in structure-of-arrays layout.
// Index i across all slices describes one entry.
type slotBucket struct {
	key   uint64 // the packed cell, to find its directory entry
	ids   []int64
	slots []int32
	xs    []float64
	ys    []float64
	// r2 is the squared radius when the radius is non-negative, -1
	// otherwise: dist2 <= r2 is then bit-equivalent to
	// geo.Circle.Contains (a non-negative dist2 never passes -1, and
	// rad*rad here is the same product Contains computes).
	r2 []float64
	// rads keeps the original radius for the multiset bookkeeping
	// (sqrt(r2) would not round-trip bit-exactly).
	rads []float64
}

// NewSlotGrid returns an empty grid with the given cell edge length in
// kilometres. Non-positive sizes fall back to DefaultCell.
func NewSlotGrid(cellSize float64) *SlotGrid {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		cellSize = DefaultCell
	}
	return &SlotGrid{
		cell: cellSize, dir: make([]dirEntry, 16), dirShift: 60, where: make(map[int64]int32),
		minCx: math.MaxInt32, maxCx: math.MinInt32, minCy: math.MaxInt32, maxCy: math.MinInt32,
	}
}

// Insert adds an entry carrying the caller's slot. Inserting an ID that
// is already present replaces the previous entry (the old slot is
// dropped; callers that recycle slots should Remove first to recover it).
func (g *SlotGrid) Insert(e Entry, slot int32) {
	if _, dup := g.where[e.ID]; dup {
		g.Remove(e.ID)
	}
	de := g.touch(CellOf(e.Circle.Center, g.cell))
	de.live++
	bi := de.bucket - 1
	b := &g.buckets[bi]
	rad := e.Circle.Radius
	r2 := -1.0
	if rad >= 0 {
		r2 = rad * rad
	}
	b.ids = append(b.ids, e.ID)
	b.slots = append(b.slots, slot)
	b.xs = append(b.xs, e.Circle.Center.X)
	b.ys = append(b.ys, e.Circle.Center.Y)
	b.r2 = append(b.r2, r2)
	b.rads = append(b.rads, rad)
	g.where[e.ID] = bi
	g.addRad(rad)
	g.n++
}

// addRad records a live entry's radius in the sorted multiset, and
// the ring when it is the new largest.
func (g *SlotGrid) addRad(r float64) {
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
	if i == len(g.radVals)-1 {
		g.ring = ringOf(r, g.cell)
	}
}

// removeRad drops one occurrence of a live entry's radius, and moves
// the ring when the last occurrence of the largest goes.
func (g *SlotGrid) removeRad(r float64) {
	i := sort.SearchFloat64s(g.radVals, r)
	if i >= len(g.radVals) || g.radVals[i] != r {
		return // unreachable: every live entry's radius is tracked
	}
	g.radCnt[i]--
	if g.radCnt[i] == 0 {
		g.radVals = append(g.radVals[:i], g.radVals[i+1:]...)
		g.radCnt = append(g.radCnt[:i], g.radCnt[i+1:]...)
		if i == len(g.radVals) {
			g.ring = ringOf(g.searchRadius(), g.cell)
		}
	}
}

// Remove deletes the entry with the given ID, returning the slot it
// carried and whether it was present.
func (g *SlotGrid) Remove(id int64) (slot int32, ok bool) {
	bi, ok := g.where[id]
	if !ok {
		return 0, false
	}
	b := &g.buckets[bi]
	g.probe(b.key).live--
	for i, eid := range b.ids {
		if eid == id {
			slot = b.slots[i]
			g.removeRad(b.rads[i])
			last := len(b.ids) - 1
			b.ids[i] = b.ids[last]
			b.slots[i] = b.slots[last]
			b.xs[i] = b.xs[last]
			b.ys[i] = b.ys[last]
			b.r2[i] = b.r2[last]
			b.rads[i] = b.rads[last]
			b.ids = b.ids[:last]
			b.slots = b.slots[:last]
			b.xs = b.xs[:last]
			b.ys = b.ys[:last]
			b.r2 = b.r2[:last]
			b.rads = b.rads[:last]
			break
		}
	}
	// An emptied bucket stays: churny cells (workers
	// leaving and re-arriving at the same spot) reuse its six arrays'
	// capacity instead of reallocating them, and the directory needs no
	// tombstones. Memory is bounded by the distinct cells ever touched.
	delete(g.where, id)
	g.n--
	return slot, true
}

// searchRadius returns the exact maximum live radius.
func (g *SlotGrid) searchRadius() float64 {
	if len(g.radVals) == 0 {
		return 0
	}
	return g.radVals[len(g.radVals)-1]
}

// AppendSlots appends to dst the slot of every entry whose disk
// contains p and returns the extended slice, in the same deterministic
// order the Grid oracle's Covering appends entries (ring scan cx-major,
// bucket order within a cell), over the part of the ring inside the
// bounding box of touched cells. Returning slots through a caller-reused
// buffer keeps the hot path free of closure captures, which would
// otherwise escape.
func (g *SlotGrid) AppendSlots(dst []int32, p geo.Point) []int32 {
	if g.n == 0 {
		return dst
	}
	// The cell is CellOf's, without its size check: g.cell is valid. A
	// saturated ring plus an int32 cell fits an int64.
	pcx, pcy := int64(int32(math.Floor(p.X/g.cell))), int64(int32(math.Floor(p.Y/g.cell)))
	loX, hiX := max(pcx-g.ring, int64(g.minCx)), min(pcx+g.ring, int64(g.maxCx))
	loY, hiY := max(pcy-g.ring, int64(g.minCy)), min(pcy+g.ring, int64(g.maxCy))
	for cx := loX; cx <= hiX; cx++ {
		for cy := loY; cy <= hiY; cy++ {
			e := g.probe(packCell(int32(cx), int32(cy)))
			if e.live == 0 { // an unused entry, or a cell emptied since
				continue
			}
			b := &g.buckets[e.bucket-1]
			xs, ys, r2 := b.xs, b.ys, b.r2
			for i := range xs {
				dx, dy := xs[i]-p.X, ys[i]-p.Y
				if dx*dx+dy*dy <= r2[i] {
					dst = append(dst, b.slots[i])
				}
			}
		}
	}
	return dst
}

// Has reports whether an entry with the given ID is live.
func (g *SlotGrid) Has(id int64) bool {
	_, ok := g.where[id]
	return ok
}

// Len returns the number of live entries.
func (g *SlotGrid) Len() int { return g.n }
