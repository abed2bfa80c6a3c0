package index

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"crossmatch/internal/geo"
)

// TestSlotGridMatchesGridOrder drives a Grid and a SlotGrid through the
// same randomized insert/remove sequence and checks every covering
// query returns the same entries in the same order — the property the
// deterministic runtime's bit-reproducibility relies on when the pool
// swaps its entry-based grid for the structure-of-arrays one. 12k steps
// over a 32 × 32 km square put entries in ~1000 distinct cells, so the
// cell directory, kept at most a quarter full, doubles eight times along
// the way.
func TestSlotGridMatchesGridOrder(t *testing.T) {
	if cells := slotGridDiff(t, 17, 12_000); cells < 512 {
		t.Fatalf("only %d cells touched: the directory did not grow as the test intends", cells)
	}
}

// FuzzSlotGridMatchesGrid is the same differential from fuzzed seeds.
func FuzzSlotGridMatchesGrid(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(-5), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		slotGridDiff(t, seed, int(steps)%4096)
	})
}

// slotGridDiff runs the differential for the given number of steps and
// returns how many cells the slot grid touched. Coordinates are negative
// half the time and land exactly on a cell edge one time in four; IDs
// are re-inserted both while live and after removal.
func slotGridDiff(t *testing.T, seed int64, steps int) (cells int) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(1.0)
	sg := NewSlotGrid(1.0)
	live := []int64{}
	var removed []int64
	nextID := int64(0)

	coord := func() float64 {
		c := rng.Float64()*32 - 16
		if rng.Intn(4) == 0 {
			c = math.Floor(c)
		}
		return c
	}
	randEntry := func(id int64) Entry {
		rad := rng.Float64() * 2
		switch rng.Intn(8) {
		case 0:
			rad = 0
		case 1:
			rad = -1 // never covers
		}
		return Entry{ID: id, Circle: geo.Circle{Center: geo.Point{X: coord(), Y: coord()}, Radius: rad}}
	}
	// The slot is the ID: any unique tag works.
	insert := func(e Entry) {
		g.Insert(e)
		sg.Insert(e, int32(e.ID))
		live = append(live, e.ID)
	}

	check := func(step int) {
		p := geo.Point{X: coord(), Y: coord()}
		want := g.Covering(nil, p)
		got := sg.AppendSlots(nil, p)
		if len(want) != len(got) {
			t.Fatalf("step %d: covering sizes differ: grid %d vs slot grid %d", step, len(want), len(got))
		}
		for i := range want {
			if want[i].ID != int64(got[i]) {
				t.Fatalf("step %d: covering order differs at %d: grid %d vs slot grid %d",
					step, i, want[i].ID, got[i])
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // insert fresh
			insert(randEntry(nextID))
			nextID++
		case op == 4 && len(removed) > 0: // an ID that left comes back
			i := rng.Intn(len(removed))
			insert(randEntry(removed[i]))
			removed[i] = removed[len(removed)-1]
			removed = removed[:len(removed)-1]
		case op < 8: // remove random live entry
			i := rng.Intn(len(live))
			id := live[i]
			okG := g.Remove(id)
			gotSlot, okS := sg.Remove(id)
			if !okG || !okS {
				t.Fatalf("step %d: remove(%d) = %v/%v, want true/true", step, id, okG, okS)
			}
			if int64(gotSlot) != id {
				t.Fatalf("step %d: remove(%d) returned slot %d, want %d", step, id, gotSlot, id)
			}
			removed = append(removed, id)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // re-insert a live ID (replacement path)
			e := randEntry(live[rng.Intn(len(live))])
			g.Insert(e)
			// Mirror online.Pool's discipline: recover the old slot first.
			if _, ok := sg.Remove(e.ID); !ok {
				t.Fatalf("step %d: live id %d missing from slot grid", step, e.ID)
			}
			sg.Insert(e, int32(e.ID))
		}
		if g.Len() != sg.Len() || g.Len() != len(live) {
			t.Fatalf("step %d: lengths diverge: grid %d, slot grid %d, want %d",
				step, g.Len(), sg.Len(), len(live))
		}
		check(step)
	}
	return len(sg.buckets)
}

// TestSlotGridFarReachingWorker is the regression for the ring scan
// that probed every cell within the largest live radius: with one
// radius-1e6 worker among 1k unit-radius ones, a query walked
// (2·10^6+1)² cells and never came back. Clamped to the occupied box it
// visits at most the 32 × 32 cells of this city. Grid is still
// unclamped, so the oracle's far worker gets a radius of 100 — enough
// to cover every query point here too, so hits and order are the same.
func TestSlotGridFarReachingWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, sg := NewGrid(1.0), NewSlotGrid(1.0)
	for id := int64(0); id < 1000; id++ {
		e := Entry{ID: id, Circle: geo.Circle{Center: geo.Point{X: rng.Float64() * 32, Y: rng.Float64() * 32}, Radius: 1}}
		g.Insert(e)
		sg.Insert(e, int32(id))
	}
	far := Entry{ID: 1000, Circle: geo.Circle{Center: geo.Point{X: 16, Y: 16}, Radius: 100}}
	g.Insert(far)

	// Only the slot grid's queries run against the clock; the oracle's
	// 201 × 201-cell scans are done first.
	points := make([]geo.Point, 100)
	want := make([][]Entry, len(points))
	for q := range points {
		points[q] = geo.Point{X: rng.Float64() * 32, Y: rng.Float64() * 32}
		want[q] = g.Covering(nil, points[q])
	}
	// The ring saturates: a radius whose ring overflows an int64, and an
	// infinite one, clamp to the box like 1e6 does.
	for _, rad := range []float64{1e6, 1e300, math.Inf(1)} {
		far.Circle.Radius = rad
		sg.Insert(far, 1000)
		got := make([][]int32, len(points))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for q, p := range points {
				got[q] = sg.AppendSlots(nil, p)
			}
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("100 queries beside one radius-%g worker did not finish in a second: the ring scan is not clamped to the occupied cells", rad)
		}
		for q := range points {
			if len(got[q]) != len(want[q]) {
				t.Fatalf("radius %g, query %d: %d slots, grid has %d entries", rad, q, len(got[q]), len(want[q]))
			}
			for i, e := range want[q] {
				if e.ID != int64(got[q][i]) {
					t.Fatalf("radius %g, query %d: order differs at %d: grid %d vs slot grid %d", rad, q, i, e.ID, got[q][i])
				}
			}
		}
	}
}

// TestSlotGridNaNRadiusScansLikeGrid: a NaN radius covers nothing, but
// as the largest live radius it sets the ring, which is then the Grid
// oracle's own conversion of it, however it compares with the radii
// inserted around it. Query points are non-negative, where the oracle's
// int32 ring arithmetic ends.
func TestSlotGridNaNRadiusScansLikeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, sg := NewGrid(1.0), NewSlotGrid(1.0)
	insert := func(id int64, rad float64) {
		e := Entry{ID: id, Circle: geo.Circle{Center: geo.Point{X: rng.Float64() * 2, Y: rng.Float64() * 2}, Radius: rad}}
		g.Insert(e)
		sg.Insert(e, int32(id))
	}
	check := func(step string) {
		t.Helper()
		for q := 0; q < 50; q++ {
			p := geo.Point{X: rng.Float64() * 2, Y: rng.Float64() * 2}
			want, got := g.Covering(nil, p), sg.AppendSlots(nil, p)
			if len(got) != len(want) {
				t.Fatalf("%s, query %d: %d slots, grid has %d entries", step, q, len(got), len(want))
			}
			for i, e := range want {
				if e.ID != int64(got[i]) {
					t.Fatalf("%s, query %d: order differs at %d: grid %d vs slot grid %d", step, q, i, e.ID, got[i])
				}
			}
		}
	}
	for id := int64(0); id < 40; id++ {
		insert(id, 1)
	}
	check("unit radii")
	insert(40, math.NaN())
	check("a NaN radius on top")
	insert(41, 2) // sorts past the NaN: the largest live radius again
	check("a larger radius after the NaN")
	g.Remove(41)
	sg.Remove(41)
	check("the NaN on top again")
}

// TestSlotGridSlotLookup checks queries and removals hand back the tag
// an entry was inserted with, and that a re-insert drops the old tag.
func TestSlotGridSlotLookup(t *testing.T) {
	sg := NewSlotGrid(1.0)
	sg.Insert(Entry{ID: 7, Circle: geo.Circle{Radius: 1}}, 41)
	sg.Insert(Entry{ID: 7, Circle: geo.Circle{Radius: 1}}, 42)
	if got := sg.AppendSlots(nil, geo.Point{}); len(got) != 1 || got[0] != 42 {
		t.Fatalf("AppendSlots = %v; want [42]", got)
	}
	if _, ok := sg.Remove(8); ok {
		t.Fatal("Remove(8) reported a missing entry present")
	}
	if s, ok := sg.Remove(7); !ok || s != 42 {
		t.Fatalf("Remove(7) = %d, %v; want 42, true", s, ok)
	}
	if _, ok := sg.Remove(7); ok {
		t.Fatal("Remove(7) succeeded twice")
	}
	if sg.Len() != 0 {
		t.Fatalf("Len = %d after removal, want 0", sg.Len())
	}
}

// TestSlotGridFindsRefilledCell: a scan skips a cell whose live count has
// fallen to zero, so emptying a cell must hide it, and refilling it — with
// a new ID, a removed one, or a live one inserted again — must bring it
// back, in the oracle's order.
func TestSlotGridFindsRefilledCell(t *testing.T) {
	g, sg := NewGrid(1.0), NewSlotGrid(1.0)
	at := func(id int64, x float64) Entry {
		return Entry{ID: id, Circle: geo.Circle{Center: geo.Point{X: x, Y: 0.5}, Radius: 2}}
	}
	insert := func(e Entry) { g.Insert(e); sg.Insert(e, int32(e.ID)) }
	remove := func(id int64) {
		g.Remove(id)
		if _, ok := sg.Remove(id); !ok {
			t.Fatalf("Remove(%d) missed a live entry", id)
		}
	}
	check := func(step string, want int) {
		t.Helper()
		p := geo.Point{X: 1, Y: 0.5}
		ref, got := g.Covering(nil, p), sg.AppendSlots(nil, p)
		if len(got) != want || len(ref) != want {
			t.Fatalf("%s: slot grid finds %v, grid %d entries, want %d", step, got, len(ref), want)
		}
		for i, e := range ref {
			if int64(got[i]) != e.ID {
				t.Fatalf("%s: order differs at %d: grid %d vs slot grid %d", step, i, e.ID, got[i])
			}
		}
	}
	insert(at(1, 0.2)) // cell (0, 0)
	insert(at(2, 0.7)) // cell (0, 0)
	insert(at(3, 1.5)) // cell (1, 0)
	check("filled", 3)
	remove(1)
	check("one of cell (0, 0)'s two removed", 2)
	remove(2)
	check("cell (0, 0) emptied", 1)
	insert(at(4, 0.4))
	check("refilled with a new ID", 2)
	remove(4)
	check("emptied again", 1)
	insert(at(2, 0.9))
	insert(at(2, 0.3)) // a live ID inserted again replaces itself
	check("refilled with a removed ID", 2)
	remove(3)
	check("cell (1, 0) emptied", 1)
	insert(at(3, 0.1)) // moved into cell (0, 0)
	check("an ID moved from the emptied cell", 2)
	if sg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sg.Len())
	}
}

// BenchmarkSlotGridAppendSlots is one request's index work at the
// ledger's city400k shape: two pools (the request's own, then its
// partner's) over a 28.3 km square, radius 1 km, 20k arrivals each, so
// every one of the ~840 cells per pool has been touched. "drained"
// leaves 22 workers waiting per pool, the online.pool_len_mean the
// traced ledger run reports — nine requests per worker keep the pools
// almost empty, and a query is nine directory probes that mostly find
// empty buckets; "full" keeps all 20k (25 per km² and pool) to time the
// bucket scan itself.
func BenchmarkSlotGridAppendSlots(b *testing.B) {
	const side, arrivals = 28.3, 20_000
	for _, live := range []struct {
		name string
		n    int
	}{{"drained", 22}, {"full", arrivals}} {
		rng := rand.New(rand.NewSource(1))
		var pools [2]*SlotGrid
		for p := range pools {
			pools[p] = NewSlotGrid(DefaultCell)
			for id := int64(0); id < arrivals; id++ {
				pools[p].Insert(entry(id, rng.Float64()*side, rng.Float64()*side, 1.0), int32(id))
			}
			for id := int64(live.n); id < arrivals; id++ {
				pools[p].Remove(id)
			}
		}
		b.Run(live.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []int32
			for i := 0; i < b.N; i++ {
				p := geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				buf = pools[0].AppendSlots(buf[:0], p)
				buf = pools[1].AppendSlots(buf, p)
			}
		})
	}
}
