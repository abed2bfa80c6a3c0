// Package index provides spatial indexes for the hot query of cross
// online matching: "which waiting workers' service ranges cover this
// request location?" (the range constraint of Definition 2.6).
//
// One implementation runs: SlotGrid, a structure-of-arrays uniform hash
// grid carrying a caller-assigned slot per entry. online.Pool runs every
// simulation's eligibility scan on it; the offline graph builder and the
// workload diagnostics enumerate feasible pairs through it.
//
// Two more live in this package's test files as its oracles: Grid, the
// same grid over Entry structs (a covering query on SlotGrid must visit
// entries in exactly Grid's order), and Linear, a brute-force scan.
//
// A SlotGrid takes no lock: like the online.Pool that owns it, it
// belongs to the one goroutine driving the engine. AppendSlots and Len
// are strictly read-only (the grid keeps its search radius exact instead
// of recomputing it lazily).
package index

import (
	"math"

	"crossmatch/internal/geo"
)

// Entry is an indexed service range: a worker ID and its coverage disk.
type Entry struct {
	ID     int64
	Circle geo.Circle
}

// DefaultCell is the cell size used when the caller passes a
// non-positive size: one kilometre, the paper's default service radius.
const DefaultCell = 1.0

// CellOf returns the grid cell coordinates of p for a given cell edge
// length — the one spatial-partition geometry shared by the matching
// grid and the fleet router (internal/route), so routing a stream by
// cell keeps each serving process's local supply density intact.
// Non-positive or non-finite sizes fall back to DefaultCell, exactly as
// NewSlotGrid does.
func CellOf(p geo.Point, cellSize float64) (cx, cy int32) {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		cellSize = DefaultCell
	}
	return int32(math.Floor(p.X / cellSize)), int32(math.Floor(p.Y / cellSize))
}
