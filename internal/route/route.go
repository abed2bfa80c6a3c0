// Package route is the fleet layer of the serving stack: a thin HTTP
// router that fronts N comserve shards, partitioning arrival events by
// consistent spatial hashing on the matching grid's cell geometry
// (internal/index.CellOf), so each shard owns a stable set of cells and
// its local supply density — what governs match quality in dynamic
// spatial matching — survives the split.
//
// The robustness core is small. Each shard has one readiness bit with
// one writer, its health prober: ready means /healthz answered 200. A
// shard that is down, or restarting (comserve re-drives its WAL before
// it listens), is simply not ready, and its cells answer fast 503s
// instead of stalling behind it. Each sub-batch is posted once: a
// failed post answers its lines 503 with a retry hint, because the
// shard may already have applied them, and the client owns every
// retry. Backpressure is explicit: shard 429/503 lines pass through
// verbatim with their retry_after_ms, the router's own refusals carry
// hints, and nothing is ever queued router-side — an overloaded router
// answers 503.
//
// Ownership is strict: an event whose owner shard is dark is refused
// with a retry hint rather than routed to another shard, which is what
// keeps a fleet replay bit-identical to an uninterrupted run (every
// event lands on exactly the shard whose recorded sub-stream contains
// it).
package route

import (
	"fmt"
	"math"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/index"
)

// resolveCell is the one reading of a configured cell edge, shared by
// New and SplitStream: 0 selects index.DefaultCell, and a size that is
// not positive and finite is an error (cells.Of would otherwise fall
// back to the default without a word).
func resolveCell(size float64) (float64, error) {
	if size == 0 {
		return index.DefaultCell, nil
	}
	if !(size > 0) || math.IsInf(size, 0) {
		return 0, fmt.Errorf("route: cell size %v km must be positive and finite", size)
	}
	return size, nil
}

// eventLoc returns the location that determines an event's cell.
func eventLoc(ev core.Event) geo.Point {
	if ev.Kind == core.WorkerArrival {
		return ev.Worker.Loc
	}
	return ev.Request.Loc
}

// SplitStream partitions a recorded stream into per-shard sub-streams
// by cell ownership — the offline twin of the router's per-line
// dispatch, guaranteed to agree with it because both call
// cells.OwnerIndex on the same geometry. Each shard's sub-stream preserves the global arrival
// order, so serving it in replay mode reproduces exactly the events
// the router will hand that shard. The cell size reads as in New.
func SplitStream(s *core.Stream, shardNames []string, cellSize float64) (map[string]*core.Stream, error) {
	if len(shardNames) == 0 {
		return nil, fmt.Errorf("route: split needs at least one shard name")
	}
	cellSize, err := resolveCell(cellSize)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(shardNames))
	for _, n := range shardNames {
		if n == "" {
			return nil, fmt.Errorf("route: empty shard name")
		}
		if seen[n] {
			return nil, fmt.Errorf("route: duplicate shard name %q", n)
		}
		seen[n] = true
	}
	parts := make([][]core.Event, len(shardNames))
	for _, ev := range s.Events() {
		owner := cells.OwnerIndex(cells.Of(eventLoc(ev), cellSize), shardNames)
		parts[owner] = append(parts[owner], ev)
	}
	out := make(map[string]*core.Stream, len(shardNames))
	for i, name := range shardNames {
		sub, err := core.NewStreamOwned(parts[i])
		if err != nil {
			return nil, fmt.Errorf("route: shard %s sub-stream: %w", name, err)
		}
		out[name] = sub
	}
	return out, nil
}
