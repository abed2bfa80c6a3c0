package route

import (
	"math"
	"math/rand"
	"testing"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/index"
)

// TestRendezvousStability is the consistent-hashing property: removing
// one shard moves only the cells it owned — every other cell keeps its
// owner.
func TestRendezvousStability(t *testing.T) {
	names := []string{"s1", "s2", "s3", "s4"}
	without := []string{"s1", "s3", "s4"} // s2 removed
	moved, kept := 0, 0
	for cx := int32(-50); cx < 50; cx++ {
		for cy := int32(-50); cy < 50; cy++ {
			c := cells.Key{CX: cx, CY: cy}
			before := cells.Owner(c, names)
			after := cells.Owner(c, without)
			if before == "s2" {
				moved++
				continue
			}
			if after != before {
				t.Fatalf("cell %v moved %s -> %s though s2 was not its owner", c, before, after)
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate partition: %d moved, %d kept", moved, kept)
	}
}

// TestOwnerBalance sanity-checks the hash spread: with 4 shards no
// shard should own a wildly skewed share of a 100x100 cell block.
func TestOwnerBalance(t *testing.T) {
	names := []string{"s1", "s2", "s3", "s4"}
	counts := map[string]int{}
	total := 0
	for cx := int32(0); cx < 100; cx++ {
		for cy := int32(0); cy < 100; cy++ {
			counts[cells.Owner(cells.Key{CX: cx, CY: cy}, names)]++
			total++
		}
	}
	for name, n := range counts {
		share := float64(n) / float64(total)
		if share < 0.15 || share > 0.35 {
			t.Fatalf("shard %s owns %.1f%% of cells (counts %v)", name, 100*share, counts)
		}
	}
}

func testStream(t *testing.T, n int) *core.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	events := make([]core.Event, 0, n)
	for i := 0; i < n; i++ {
		tm := core.Time(i)
		loc := geo.Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
		if i%2 == 0 {
			events = append(events, core.Event{Time: tm, Kind: core.WorkerArrival,
				Worker: &core.Worker{ID: int64(i + 1), Arrival: tm, Loc: loc, Radius: 1, Platform: 1}})
		} else {
			events = append(events, core.Event{Time: tm, Kind: core.RequestArrival,
				Request: &core.Request{ID: int64(i + 1), Arrival: tm, Loc: loc, Value: 10, Platform: 1}})
		}
	}
	s, err := core.NewStream(events)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return s
}

// TestSplitStreamAgreesWithOwner is the splitter↔router contract:
// every event lands in exactly the sub-stream of its cell's owner, and
// nothing is lost or duplicated.
func TestSplitStreamAgreesWithOwner(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	stream := testStream(t, 400)
	parts, err := SplitStream(stream, names, 1.0)
	if err != nil {
		t.Fatalf("SplitStream: %v", err)
	}
	total := 0
	for name, sub := range parts {
		for _, ev := range sub.Events() {
			owner := cells.Owner(cells.Of(eventLoc(ev), 1.0), names)
			if owner != name {
				t.Fatalf("event %d in sub-stream %s, owner is %s", eventID(ev), name, owner)
			}
		}
		total += sub.Len()
	}
	if total != stream.Len() {
		t.Fatalf("split lost events: %d across shards, want %d", total, stream.Len())
	}
	// Per-shard order preserves the global arrival order.
	for name, sub := range parts {
		evs := sub.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Time < evs[i-1].Time {
				t.Fatalf("shard %s sub-stream out of order at %d", name, i)
			}
		}
	}
}

func TestSplitStreamValidation(t *testing.T) {
	stream := testStream(t, 10)
	if _, err := SplitStream(stream, nil, 1.0); err == nil {
		t.Fatal("SplitStream accepted zero shard names")
	}
	if _, err := SplitStream(stream, []string{"a", ""}, 1.0); err == nil {
		t.Fatal("SplitStream accepted an empty shard name")
	}
	if _, err := SplitStream(stream, []string{"a", "a"}, 1.0); err == nil {
		t.Fatal("SplitStream accepted duplicate shard names")
	}
}

func eventID(ev core.Event) int64 {
	if ev.Kind == core.WorkerArrival {
		return ev.Worker.ID
	}
	return ev.Request.ID
}

// pointOwnedBy searches for a coordinate whose cell the named shard
// owns — how the router tests steer lines at specific shards.
func pointOwnedBy(t *testing.T, name string, names []string, cellSize float64) geo.Point {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		p := geo.Point{X: float64(i%100) + 0.5, Y: float64(i/100) + 0.5}
		if cells.Owner(cells.Of(p, cellSize), names) == name {
			return p
		}
	}
	t.Fatalf("no point owned by %s", name)
	return geo.Point{}
}

// TestCellGeometry: a zero cell size splits on the default grid cell,
// the geometry the router dispatches on when Options.CellSize is unset.
func TestCellGeometry(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	stream := testStream(t, 400)
	byDefault, err := SplitStream(stream, names, 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := SplitStream(stream, names, index.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		a, b := byDefault[name].Events(), explicit[name].Events()
		if len(a) != len(b) {
			t.Fatalf("shard %s: %d events at cell size 0, %d at the default cell", name, len(a), len(b))
		}
		for i := range a {
			if eventID(a[i]) != eventID(b[i]) {
				t.Fatalf("shard %s event %d differs between cell size 0 and the default cell", name, i)
			}
		}
	}
}

// TestCellSizeResolvedOnce: New and SplitStream read a cell size the
// same way. 0 is index.DefaultCell, and the router reports that value;
// a size that is not positive and finite is an error, not a quiet fall
// back to the default.
func TestCellSizeResolvedOnce(t *testing.T) {
	shards := []ShardConfig{{Name: "s1", URL: "http://127.0.0.1:1"}}
	r, err := New(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Snapshot().CellSize
	r.Close()
	if got != index.DefaultCell {
		t.Errorf("unset cell size reported as %v, want index.DefaultCell = %v", got, index.DefaultCell)
	}
	stream := testStream(t, 10)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if r, err := New(Options{Shards: shards, CellSize: bad}); err == nil {
			r.Close()
			t.Errorf("New accepted cell size %v", bad)
		}
		if _, err := SplitStream(stream, []string{"s1"}, bad); err == nil {
			t.Errorf("SplitStream accepted cell size %v", bad)
		}
	}
}
