// Package route is the fleet layer of the serving stack: a thin HTTP
// router that fronts N comserve shards, partitioning arrival events by
// consistent spatial hashing on the matching grid's cell geometry
// (internal/index.CellOf), so each shard owns a stable set of cells and
// its local supply density — what governs match quality in dynamic
// spatial matching — survives the split.
//
// The robustness core: per-shard health probes against the
// liveness/readiness-split /healthz (a shard re-driving its WAL is
// live but not ready and receives no traffic), per-shard circuit
// breakers on the internal/fault state machine (connection failures
// open the breaker; an open breaker short-circuits calls into fast
// 503s instead of stalling behind a dead shard), transport retries
// with capped-jittered backoff, and explicit backpressure: shard
// 429/503 lines pass through verbatim with their retry_after_ms, the
// router's own refusals carry hints, and nothing is ever queued
// router-side — an overloaded router answers 503.
//
// Ownership is strict: an event whose owner shard is dark is refused
// with a retry hint rather than routed to another shard, which is what
// keeps a fleet replay bit-identical to an uninterrupted run (every
// event lands on exactly the shard whose recorded sub-stream contains
// it).
package route

import (
	"fmt"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

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
// the router will hand that shard.
func SplitStream(s *core.Stream, shardNames []string, cellSize float64) (map[string]*core.Stream, error) {
	if len(shardNames) == 0 {
		return nil, fmt.Errorf("route: split needs at least one shard name")
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
