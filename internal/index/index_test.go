package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"crossmatch/internal/geo"
)

func entry(id int64, x, y, r float64) Entry {
	return Entry{ID: id, Circle: geo.Circle{Center: geo.Point{X: x, Y: y}, Radius: r}}
}

// ids extracts the sorted IDs from entries for order-insensitive comparison.
func ids(es []Entry) []int64 {
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []Entry) bool {
	ia, ib := ids(a), ids(b)
	if len(ia) != len(ib) {
		return false
	}
	for i := range ia {
		if ia[i] != ib[i] {
			return false
		}
	}
	return true
}

// makers builds one fresh index of each implementation.
func makers() map[string]func() Index {
	return map[string]func() Index{
		"linear": func() Index { return NewLinear() },
		"grid":   func() Index { return NewGrid(1.0) },
	}
}

func TestIndexBasic(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			ix := mk()
			if ix.Len() != 0 {
				t.Fatal("new index not empty")
			}
			ix.Insert(entry(1, 0, 0, 1))
			ix.Insert(entry(2, 5, 5, 2))
			ix.Insert(entry(3, 0.5, 0, 1))
			if ix.Len() != 3 {
				t.Fatalf("Len = %d, want 3", ix.Len())
			}
			got := ix.Covering(nil, geo.Point{X: 0, Y: 0})
			if want := []int64{1, 3}; len(ids(got)) != 2 || ids(got)[0] != want[0] || ids(got)[1] != want[1] {
				t.Errorf("Covering(origin) = %v, want %v", ids(got), want)
			}
			if got := ix.Covering(nil, geo.Point{X: 100, Y: 100}); len(got) != 0 {
				t.Errorf("Covering(far) = %v, want empty", ids(got))
			}
			if !ix.Remove(1) {
				t.Error("Remove(1) = false")
			}
			if ix.Remove(1) {
				t.Error("double Remove(1) = true")
			}
			if ix.Remove(99) {
				t.Error("Remove(missing) = true")
			}
			got = ix.Covering(nil, geo.Point{X: 0, Y: 0})
			if len(got) != 1 || got[0].ID != 3 {
				t.Errorf("after removal Covering = %v, want [3]", ids(got))
			}
			if ix.Len() != 2 {
				t.Errorf("Len after removal = %d, want 2", ix.Len())
			}
		})
	}
}

func TestIndexInsertReplacesDuplicateID(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			ix := mk()
			ix.Insert(entry(7, 0, 0, 1))
			ix.Insert(entry(7, 10, 10, 1)) // replaces
			if ix.Len() != 1 {
				t.Fatalf("Len = %d, want 1", ix.Len())
			}
			if got := ix.Covering(nil, geo.Point{}); len(got) != 0 {
				t.Errorf("old position still covered: %v", ids(got))
			}
			if got := ix.Covering(nil, geo.Point{X: 10, Y: 10}); len(got) != 1 {
				t.Errorf("new position not covered")
			}
		})
	}
}

func TestIndexBoundaryInclusive(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			ix := mk()
			ix.Insert(entry(1, 0, 0, 2))
			if got := ix.Covering(nil, geo.Point{X: 2, Y: 0}); len(got) != 1 {
				t.Error("boundary point must be covered")
			}
			if got := ix.Covering(nil, geo.Point{X: 2.0001, Y: 0}); len(got) != 0 {
				t.Error("just-outside point must not be covered")
			}
		})
	}
}

// TestIndexAgainstOracle drives the grid through a random
// insert/remove/query workload and compares every query against the
// linear scan.
func TestIndexAgainstOracle(t *testing.T) {
	const ops = 4000
	rng := rand.New(rand.NewSource(42))
	oracle := NewLinear()
	under := map[string]Index{"grid": NewGrid(0.7)}

	var liveIDs []int64
	nextID := int64(1)
	for i := 0; i < ops; i++ {
		switch op := rng.Float64(); {
		case op < 0.5 || len(liveIDs) == 0: // insert
			e := entry(nextID, rng.Float64()*20-10, rng.Float64()*20-10, 0.1+rng.Float64()*3)
			nextID++
			oracle.Insert(e)
			for _, ix := range under {
				ix.Insert(e)
			}
			liveIDs = append(liveIDs, e.ID)
		case op < 0.75: // remove
			k := rng.Intn(len(liveIDs))
			id := liveIDs[k]
			liveIDs[k] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			want := oracle.Remove(id)
			for name, ix := range under {
				if got := ix.Remove(id); got != want {
					t.Fatalf("op %d: %s.Remove(%d) = %v, oracle %v", i, name, id, got, want)
				}
			}
		default: // query
			p := geo.Point{X: rng.Float64()*24 - 12, Y: rng.Float64()*24 - 12}
			want := oracle.Covering(nil, p)
			for name, ix := range under {
				got := ix.Covering(nil, p)
				if !sameIDs(got, want) {
					t.Fatalf("op %d: %s.Covering(%v) = %v, oracle %v", i, name, p, ids(got), ids(want))
				}
			}
		}
		for name, ix := range under {
			if ix.Len() != oracle.Len() {
				t.Fatalf("op %d: %s.Len = %d, oracle %d", i, name, ix.Len(), oracle.Len())
			}
		}
	}
}

func TestGridMaxRadiusShrinksAfterRemoval(t *testing.T) {
	g := NewGrid(1)
	g.Insert(entry(1, 0, 0, 10)) // huge radius forces a wide search ring
	g.Insert(entry(2, 3, 0, 1))
	if got := g.Covering(nil, geo.Point{X: 9, Y: 0}); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("big circle should cover far point, got %v", ids(got))
	}
	g.Remove(1)
	// After removing the big circle the search radius must shrink but
	// queries must stay correct.
	if got := g.Covering(nil, geo.Point{X: 9, Y: 0}); len(got) != 0 {
		t.Errorf("stale coverage after removal: %v", ids(got))
	}
	if got := g.Covering(nil, geo.Point{X: 3.5, Y: 0}); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("small circle lost: %v", ids(got))
	}
}

func TestGridDefaultCellFallback(t *testing.T) {
	p := geo.Point{X: 2.5, Y: -0.5}
	wx, wy := CellOf(p, DefaultCell)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if cx, cy := CellOf(p, bad); cx != wx || cy != wy {
			t.Errorf("CellOf(p, %v) = (%d, %d), want DefaultCell's (%d, %d)", bad, cx, cy, wx, wy)
		}
		// A grid built on a bad size must still answer: a cell edge of 0
		// or NaN would send the ring scan nowhere or forever.
		sg := NewSlotGrid(bad)
		sg.Insert(entry(1, 2.5, -0.5, 1), 9)
		if got := sg.AppendSlots(nil, p); len(got) != 1 || got[0] != 9 {
			t.Errorf("NewSlotGrid(%v): AppendSlots = %v, want [9]", bad, got)
		}
	}
}

func TestNearest(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			ix := mk()
			if _, ok := Nearest(ix, geo.Point{}); ok {
				t.Fatal("Nearest on empty index must report !ok")
			}
			ix.Insert(entry(1, 2, 0, 5))
			ix.Insert(entry(2, 1, 0, 5))
			ix.Insert(entry(3, 4, 0, 5))
			ix.Insert(entry(4, 40, 0, 5)) // does not cover origin
			e, ok := Nearest(ix, geo.Point{})
			if !ok || e.ID != 2 {
				t.Errorf("Nearest = %v, %v; want ID 2", e.ID, ok)
			}
		})
	}
}

func TestNearestTieBreaksByID(t *testing.T) {
	ix := NewLinear()
	ix.Insert(entry(9, 1, 0, 5))
	ix.Insert(entry(4, -1, 0, 5)) // same distance from origin
	e, ok := Nearest(ix, geo.Point{})
	if !ok || e.ID != 4 {
		t.Errorf("Nearest tie = %d, want 4", e.ID)
	}
}

func TestSortEntries(t *testing.T) {
	es := []Entry{entry(3, 5, 0, 1), entry(1, 1, 0, 1), entry(2, 3, 0, 1)}
	SortEntries(es, geo.Point{})
	want := []int64{1, 2, 3}
	for i, e := range es {
		if e.ID != want[i] {
			t.Fatalf("SortEntries order = %v", ids(es))
		}
	}
}

func BenchmarkCovering(b *testing.B) {
	// Two spatial regimes: uniform, and the hot-spot skew of the city
	// workloads (90% of entries in a tight cluster) — the regime where
	// grid cells overflow.
	distributions := map[string]func(rng *rand.Rand) (x, y float64){
		"uniform": func(rng *rand.Rand) (float64, float64) {
			return rng.Float64() * 30, rng.Float64() * 30
		},
		"hotspot": func(rng *rand.Rand) (float64, float64) {
			if rng.Float64() < 0.9 {
				return 15 + rng.NormFloat64(), 15 + rng.NormFloat64()
			}
			return rng.Float64() * 30, rng.Float64() * 30
		},
	}
	for distName, sample := range distributions {
		rng := rand.New(rand.NewSource(1))
		var es []Entry
		for i := 0; i < 10000; i++ {
			x, y := sample(rng)
			es = append(es, entry(int64(i+1), x, y, 1.0))
		}
		for name, mk := range makers() {
			ix := mk()
			for _, e := range es {
				ix.Insert(e)
			}
			b.Run(distName+"/"+name, func(b *testing.B) {
				var buf []Entry
				for i := 0; i < b.N; i++ {
					x, y := sample(rng)
					buf = ix.Covering(buf[:0], geo.Point{X: x, Y: y})
				}
			})
		}
	}
}

// TestGridSearchRadiusExact white-boxes the radius multiset: the search
// ring must track the exact live maximum through removals (the lazy
// dirty-flag recompute it replaced was only exact at query time, which
// made Covering a writer) and through duplicate-ID re-inserts that
// change an entry's radius.
func TestGridSearchRadiusExact(t *testing.T) {
	g := NewGrid(1)
	g.Insert(entry(1, 0, 0, 5))
	g.Insert(entry(2, 8, 0, 2))
	g.Insert(entry(3, -8, 0, 1))
	g.Insert(entry(4, 4, 4, 2)) // duplicate radius 2
	steps := []struct {
		remove int64
		want   float64
	}{
		{0, 5}, // initial: max of {5,2,1,2}
		{1, 2}, // drop the 5: max of {2,1,2}
		{2, 2}, // drop one 2: the other keeps the max
		{4, 1}, // drop the last 2
		{3, 0}, // empty
	}
	for _, s := range steps {
		if s.remove != 0 && !g.Remove(s.remove) {
			t.Fatalf("Remove(%d) = false", s.remove)
		}
		if got := g.searchRadius(); got != s.want {
			t.Fatalf("after removing %d: searchRadius = %v, want %v", s.remove, got, s.want)
		}
	}

	// Re-inserting an existing ID with a different radius must swap the
	// old radius for the new one, not leak either.
	g.Insert(entry(9, 0, 0, 3))
	g.Insert(entry(9, 1, 1, 7))
	if got := g.searchRadius(); got != 7 {
		t.Fatalf("searchRadius after re-insert = %v, want 7", got)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after re-insert = %d, want 1", g.Len())
	}
	if got := g.Covering(nil, geo.Point{X: 7, Y: 1}); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("re-inserted entry not found at new radius: %v", ids(got))
	}
	g.Remove(9)
	if got := g.searchRadius(); got != 0 {
		t.Fatalf("searchRadius after final removal = %v, want 0", got)
	}
}

// TestGridCoveringReadOnlyUnderConcurrentReaders hammers Covering from
// several goroutines with no writer — safe exactly because the search
// radius is maintained on the write path. Run under -race this guards
// the invariant online.Pool's RLock depends on.
func TestGridCoveringReadOnlyUnderConcurrentReaders(t *testing.T) {
	g := NewGrid(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		g.Insert(entry(int64(i+1), rng.Float64()*20, rng.Float64()*20, 0.5+rng.Float64()*3))
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			r := rand.New(rand.NewSource(seed))
			var buf []Entry
			for i := 0; i < 2000; i++ {
				buf = g.Covering(buf[:0], geo.Point{X: r.Float64() * 20, Y: r.Float64() * 20})
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
